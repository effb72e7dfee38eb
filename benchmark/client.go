package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// sample is one request as its client saw it.
type sample struct {
	Query      string
	Start, End time.Time
	// Err is empty for a complete reply: transport fine, status 200 (or a
	// nil error in-process), stream ended without an error line. Whether
	// the rows were the right ones is decided later, against the oracle.
	Err    string
	Digest digest
	Bytes  int64 // reply body size

	// From the reply's header line (or the in-process Response).
	ServerLatency time.Duration
	CacheHit      bool
	Epoch         int64
}

func (s sample) latency() time.Duration { return s.End.Sub(s.Start) }

// replyHeader is the first NDJSON line of a /query reply; a mid-stream
// failure arrives as a later line carrying only Error.
type replyHeader struct {
	Epoch     int64  `json:"epoch"`
	CacheHit  bool   `json:"cache_hit"`
	LatencyUs int64  `json:"latency_us"`
	Error     string `json:"error"`
}

func newHTTPClient() *http.Client {
	return &http.Client{
		// The server enforces the query deadline itself (504); this only
		// keeps a wedged connection from hanging the run.
		Timeout: 2 * httpTimeout,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

// doQuery sends one query and consumes the reply to its last byte,
// digesting rows as they stream past.
func doQuery(hc *http.Client, base, query string) sample {
	s := sample{Query: query, Start: time.Now()}
	fail := func(format string, args ...any) sample {
		s.End = time.Now()
		s.Err = fmt.Sprintf(format, args...)
		return s
	}
	resp, err := hc.Get(base + "/query?tenant=" + tenant + "&q=" + query + "&timeout=" + httpTimeout.String())
	if err != nil {
		return fail("transport: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512)) // best effort: only decorates the message
		return fail("status %d: %s", resp.StatusCode, body)
	}
	br := bufio.NewReaderSize(resp.Body, 64<<10)
	first := true
	for {
		line, err := br.ReadSlice('\n')
		s.Bytes += int64(len(line))
		if n := len(line); n > 0 && line[n-1] == '\n' {
			line = line[:n-1]
		}
		if len(line) > 0 {
			switch {
			case line[0] == '[' && !first:
				s.Digest.addLine(line)
			case line[0] == '{':
				var h replyHeader
				if jerr := json.Unmarshal(line, &h); jerr != nil {
					return fail("bad reply line: %v", jerr)
				}
				if h.Error != "" {
					return fail("stream error: %s", h.Error)
				}
				if !first {
					return fail("second header line")
				}
				s.Epoch, s.CacheHit = h.Epoch, h.CacheHit
				s.ServerLatency = time.Duration(h.LatencyUs) * time.Microsecond
			default:
				return fail("unexpected reply line %q", line)
			}
			first = false
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return fail("read: %v", err)
		}
	}
	if first {
		return fail("empty reply")
	}
	s.End = time.Now()
	return s
}

// closedLoop runs n clients, each sending its next request when the
// previous reply's last byte has arrived, until stop is set. A request in
// flight at that moment is allowed to finish. It returns every sample.
func closedLoop(n int, stop *atomic.Bool, next func(client int) func() sample) []sample {
	var wg sync.WaitGroup
	per := make([][]sample, n)
	for c := 0; c < n; c++ {
		c, send := c, next(c)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				per[c] = append(per[c], send())
			}
		}()
	}
	wg.Wait()
	var all []sample
	for _, s := range per {
		all = append(all, s...)
	}
	return all
}
