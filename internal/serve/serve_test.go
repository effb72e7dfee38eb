package serve

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"pref/internal/bulkload"
	"pref/internal/catalog"
	"pref/internal/cluster"
	"pref/internal/engine"
	"pref/internal/fault"
	"pref/internal/partition"
	"pref/internal/plan"
	"pref/internal/table"
	"pref/internal/testutil"
	"pref/internal/value"
)

// testServeDB builds a small two-table database: fact hash-partitioned on
// its key, dim replicated — enough for scans, aggregates, and write-path
// epoch rolls.
func testServeDB() (*table.Database, *partition.Config) {
	s := catalog.NewSchema("srv")
	s.MustAddTable(catalog.MustTable("fact",
		[]catalog.Column{{Name: "k", Kind: value.Int}, {Name: "d", Kind: value.Int}}, "k"))
	s.MustAddTable(catalog.MustTable("dim",
		[]catalog.Column{{Name: "d", Kind: value.Int}, {Name: "payload", Kind: value.Int}}, "d"))
	db := table.NewDatabase(s)
	for k := int64(0); k < 40; k++ {
		db.Tables["fact"].MustAppend(value.Tuple{k, k % 5})
	}
	for d := int64(0); d < 5; d++ {
		db.Tables["dim"].MustAppend(value.Tuple{d, 100 + d})
	}
	cfg := partition.NewConfig(4)
	cfg.SetHash("fact", "k")
	cfg.SetReplicated("dim")
	return db, cfg
}

func testQueries() map[string]func() plan.Node {
	return map[string]func() plan.Node{
		"count": func() plan.Node {
			return plan.Aggregate(plan.Scan("fact", "f"), nil,
				plan.Count("cnt"), plan.Sum(plan.Col("f.k"), "s"))
		},
		"scan": func() plan.Node { return plan.Scan("fact", "f") },
	}
}

// newTestServer builds a server over the fixture with optional overrides
// and closes it at test end.
func newTestServer(t *testing.T, mod func(*Options)) *Server {
	t.Helper()
	db, cfg := testServeDB()
	opt := Options{
		DB: db, Config: cfg, Queries: testQueries(),
		Tenants:      []TenantConfig{{Name: "a"}, {Name: "b", Weight: 3}},
		QueueTimeout: 2 * time.Second,
	}
	if mod != nil {
		mod(&opt)
	}
	s, err := NewServer(opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close(context.Background()) })
	return s
}

func TestSubmitBasic(t *testing.T) {
	s := newTestServer(t, nil)
	resp, err := s.Submit(context.Background(), "a", "count")
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Rows) != 1 {
		t.Fatalf("count rows = %d, want 1", len(resp.Rows))
	}
	if resp.Rows[0][0] != 40 {
		t.Fatalf("count = %v, want 40", resp.Rows[0][0])
	}
	if resp.Attempts != 1 || resp.CacheHit {
		t.Fatalf("attempts=%d cacheHit=%v, want 1/false on first execution", resp.Attempts, resp.CacheHit)
	}
	if m := s.Metrics(); m.Completed != 1 || m.Submitted != 1 {
		t.Fatalf("metrics = %+v, want 1 submitted, 1 completed", m)
	}
}

// assertOutcomesBalance checks the /metrics identity on an idle server:
// every counted submission ended in exactly one outcome counter.
func assertOutcomesBalance(t *testing.T, s *Server, after string) {
	t.Helper()
	m := s.Metrics()
	var rejected int64
	for _, n := range m.Rejected {
		rejected += n
	}
	if m.Completed+m.Failed+m.DeadlineExceeded+rejected != m.Submitted {
		t.Fatalf("after %s: outcome accounting leak: %+v", after, m)
	}
}

func TestUnknownTenantAndQuery(t *testing.T) {
	s := newTestServer(t, nil)
	if _, err := s.Submit(context.Background(), "ghost", "count"); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("unknown tenant err = %v", err)
	}
	assertOutcomesBalance(t, s, "an unknown tenant")
	if _, err := s.Submit(context.Background(), "a", "nope"); !errors.Is(err, ErrUnknownQuery) {
		t.Fatalf("unknown query err = %v", err)
	}
	assertOutcomesBalance(t, s, "an unknown query")
	if m := s.Metrics(); m.Submitted != 0 {
		t.Fatalf("Submitted = %d: a submission naming nothing the server knows is not counted", m.Submitted)
	}
}

// TestNewServerValidatesTenants: a tenant list no default can repair is
// refused at construction instead of dropping a lane or rejecting every
// submission at the quota rung.
func TestNewServerValidatesTenants(t *testing.T) {
	db, cfg := testServeDB()
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name    string
		tenants []TenantConfig
		wantErr string // "" = accepted
	}{
		{"defaults", []TenantConfig{{Name: "a"}, {Name: "b", Weight: 3, Rate: 5, Burst: 2}}, ""},
		{"non-positive knobs take defaults", []TenantConfig{{Name: "a", Weight: -1, Rate: -2, Burst: 0}}, ""},
		{"duplicate name", []TenantConfig{{Name: "a", Rate: 1}, {Name: "a", Weight: 5}}, `duplicate tenant "a"`},
		{"NaN rate", []TenantConfig{{Name: "a", Rate: nan}}, "must be finite"},
		{"NaN weight", []TenantConfig{{Name: "a", Weight: nan}}, "must be finite"},
		{"+Inf rate", []TenantConfig{{Name: "a", Rate: inf}}, "must be finite"},
		{"-Inf burst", []TenantConfig{{Name: "a", Burst: -inf}}, "must be finite"},
		{"burst below one token", []TenantConfig{{Name: "a", Rate: 5, Burst: 0.5}}, "below one query"},
		{"burst below one, no rate limit", []TenantConfig{{Name: "a", Burst: 0.5}}, ""},
	} {
		s, err := NewServer(Options{DB: db, Config: cfg, Queries: testQueries(), Tenants: tc.tenants})
		if s != nil {
			s.Close(context.Background())
		}
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%s: rejected: %v", tc.name, err)
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("%s: err = %v, want one containing %q", tc.name, err, tc.wantErr)
		}
	}
}

// TestNewServerValidatesShedThreshold: a NaN threshold compares false with
// every load, so it would shed every query once one had completed; it is
// refused. +Inf means never shed.
func TestNewServerValidatesShedThreshold(t *testing.T) {
	db, cfg := testServeDB()
	opt := Options{DB: db, Config: cfg, Queries: testQueries(), Tenants: []TenantConfig{{Name: "a"}}}
	opt.ShedThreshold = math.NaN()
	if s, err := NewServer(opt); err == nil || !strings.Contains(err.Error(), "ShedThreshold") {
		if s != nil {
			s.Close(context.Background())
		}
		t.Fatalf("NaN ShedThreshold: err = %v, want a ShedThreshold error", err)
	}
	opt.ShedThreshold = math.Inf(1)
	s, err := NewServer(opt)
	if err != nil {
		t.Fatalf("+Inf ShedThreshold rejected: %v", err)
	}
	s.Close(context.Background())
	sh := newShedder(math.Inf(1))
	sh.observe(10 * time.Millisecond)
	if ok, _ := sh.admit(1e9, time.Hour); !ok {
		t.Fatal("+Inf threshold shed a query")
	}
}

func TestTokenBucket(t *testing.T) {
	b := &tokenBucket{rate: 2, burst: 2}
	now := time.Unix(1000, 0)
	for i := 0; i < 2; i++ {
		if ok, _ := b.take(now); !ok {
			t.Fatalf("take %d within burst refused", i)
		}
	}
	ok, retry := b.take(now)
	if ok {
		t.Fatal("take beyond burst admitted")
	}
	if retry <= 0 || retry > time.Second {
		t.Fatalf("retry-after = %v, want (0, 1s] at rate 2/s", retry)
	}
	if ok, _ := b.take(now.Add(600 * time.Millisecond)); !ok {
		t.Fatal("take after refill refused")
	}
}

// TestQuotaRejection pins rung 1: a rate-limited tenant's burst passes,
// the next submission is a typed quota rejection with a Retry-After hint,
// and the other tenant is unaffected.
func TestQuotaRejection(t *testing.T) {
	s := newTestServer(t, func(o *Options) {
		o.Tenants = []TenantConfig{{Name: "a", Rate: 0.5, Burst: 1}, {Name: "b"}}
	})
	if _, err := s.Submit(context.Background(), "a", "count"); err != nil {
		t.Fatal(err)
	}
	_, err := s.Submit(context.Background(), "a", "count")
	if !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("err = %v, want ErrQuotaExceeded", err)
	}
	var rej *RejectedError
	if !errors.As(err, &rej) {
		t.Fatalf("err %T is not *RejectedError", err)
	}
	if rej.Stage != "quota" || rej.RetryAfter <= 0 {
		t.Fatalf("rejection = %+v, want quota stage with positive RetryAfter", rej)
	}
	if _, err := s.Submit(context.Background(), "b", "count"); err != nil {
		t.Fatalf("tenant b throttled by a's quota: %v", err)
	}
	if m := s.Metrics(); m.Rejected["quota"] != 1 {
		t.Fatalf("quota rejections = %d, want 1", m.Rejected["quota"])
	}
}

// TestWeightedFairAdmission pins rung 3: with one slot and both tenants
// saturating the queue, grants go 3:1 to the weight-3 tenant while both
// have work queued.
func TestWeightedFairAdmission(t *testing.T) {
	adm := newAdmitter(1, time.Minute, []TenantConfig{{Name: "a"}, {Name: "b", Weight: 3}})
	rel0, err := adm.acquire(context.Background(), "a", 1)
	if err != nil {
		t.Fatal(err)
	}
	order := make(chan string, 12)
	done := make(chan struct{})
	for i := 0; i < 12; i++ {
		tenant := "a"
		if i >= 6 {
			tenant = "b"
		}
		go func(tenant string) {
			rel, err := adm.acquire(context.Background(), tenant, 1)
			if err != nil {
				order <- "err:" + err.Error()
				done <- struct{}{}
				return
			}
			order <- tenant
			rel() // cascade: releasing grants the next waiter
			done <- struct{}{}
		}(tenant)
	}
	// All 12 must be queued before the cascade starts, or grant order
	// depends on goroutine scheduling.
	for start := time.Now(); ; {
		adm.mu.Lock()
		q := adm.queued
		adm.mu.Unlock()
		if q == 12 {
			break
		}
		if time.Since(start) > 5*time.Second {
			t.Fatalf("only %d of 12 waiters queued", q)
		}
		time.Sleep(time.Millisecond)
	}
	rel0()
	for i := 0; i < 12; i++ {
		<-done
	}
	close(order)
	var got []string
	for tn := range order {
		got = append(got, tn)
	}
	// While both tenants have waiters (the first 8 grants), weight-3 b
	// must receive 6 of 8; a's remaining 4 drain after b's queue empties.
	bFirst8 := 0
	for _, tn := range got[:8] {
		if tn == "b" {
			bFirst8++
		}
	}
	if bFirst8 != 6 {
		t.Fatalf("weight-3 tenant got %d of first 8 grants, want 6 (order %v)", bFirst8, got)
	}
}

func TestShedderPricing(t *testing.T) {
	sh := newShedder(1.5)
	// Below threshold everything passes, even expensive queries.
	if ok, _ := sh.admit(1.0, time.Hour); !ok {
		t.Fatal("query shed below threshold")
	}
	sh.observe(10 * time.Millisecond)
	// At load 2.0 (o=1/3) the allowance is ewma·2 = 20ms: cheap and
	// unknown-cost queries pass, expensive ones shed with a retry hint.
	if ok, _ := sh.admit(2.0, 5*time.Millisecond); !ok {
		t.Fatal("cheap query shed")
	}
	if ok, _ := sh.admit(2.0, 0); !ok {
		t.Fatal("unknown-cost query shed despite average pricing")
	}
	ok, retry := sh.admit(2.0, 100*time.Millisecond)
	if ok {
		t.Fatal("expensive query admitted at load 2.0")
	}
	if retry <= 0 {
		t.Fatalf("retry hint = %v, want positive", retry)
	}
	// Deeper overload shrinks the allowance toward zero: at o=1 even the
	// average query sheds.
	if ok, _ := sh.admit(3.0, 10*time.Millisecond); ok {
		t.Fatal("average query admitted at load 3.0")
	}
}

// TestShedExpensiveQueriesFirst pins rung 2 end to end: under overload
// the expensive prepared query is turned away with ErrOverloaded while
// the cheap one still queues.
func TestShedExpensiveQueriesFirst(t *testing.T) {
	s := newTestServer(t, func(o *Options) {
		o.MaxConcurrent = 1
		o.ShedThreshold = 1.2
	})
	// Price "scan" as expensive and set the pricing EWMA from history.
	s.costs.observe("scan", 200*time.Millisecond)
	s.shed.observe(10 * time.Millisecond)
	s.costs.observe("count", 5*time.Millisecond)

	// Hold the only slot with an undrained stream: load = 1.
	st, err := s.Stream(context.Background(), "a", "count")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	// Queue one more (load 2 > 1.2 once queued): submitted from a
	// goroutine since it blocks.
	queued := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_, err := s.Submit(ctx, "a", "count")
		queued <- err
	}()
	for start := time.Now(); s.adm.load() < 2; {
		if time.Since(start) > 5*time.Second {
			t.Fatal("second query never queued")
		}
		time.Sleep(time.Millisecond)
	}

	// The expensive query is shed with the typed error and a hint...
	_, err = s.Submit(context.Background(), "b", "scan")
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("expensive query err = %v, want ErrOverloaded", err)
	}
	var rej *RejectedError
	if !errors.As(err, &rej) || rej.Stage != "shed" || rej.RetryAfter <= 0 || rej.Cost != 200*time.Millisecond {
		t.Fatalf("rejection = %+v, want shed stage, positive RetryAfter, priced cost", err)
	}
	// ...while releasing the slot lets the cheap queued query finish.
	st.Close()
	if err := <-queued; err != nil {
		t.Fatalf("cheap queued query: %v", err)
	}
	if m := s.Metrics(); m.Rejected["shed"] != 1 {
		t.Fatalf("shed rejections = %d, want 1", m.Rejected["shed"])
	}
}

// TestQueueTimeout pins rung 3's bounded wait: a saturated server rejects
// queued queries after QueueTimeout with the admission-timeout
// sentinel.
func TestQueueTimeout(t *testing.T) {
	s := newTestServer(t, func(o *Options) {
		o.MaxConcurrent = 1
		o.QueueTimeout = 30 * time.Millisecond
		o.ShedThreshold = 100 // shedding out of the way
	})
	st, err := s.Stream(context.Background(), "a", "count")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	_, err = s.Submit(context.Background(), "b", "count")
	if !errors.Is(err, ErrAdmissionTimeout) {
		t.Fatalf("err = %v, want ErrAdmissionTimeout", err)
	}
	var rej *RejectedError
	if !errors.As(err, &rej) || rej.Stage != "queue" {
		t.Fatalf("rejection = %+v, want queue stage", err)
	}
}

// TestDeadlinePropagation pins the tentpole property end to end: a client
// deadline expiring mid-execution surfaces as engine.ErrDeadlineExceeded
// (with context.DeadlineExceeded still matchable underneath), not as a
// hang or an untyped error.
func TestDeadlinePropagation(t *testing.T) {
	s := newTestServer(t, func(o *Options) {
		o.FaultFor = func(seq int64, attempt int) *fault.Policy {
			return &fault.Policy{Seed: seq, StragglerProb: 1, StragglerDelay: 300 * time.Millisecond}
		}
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, err := s.Submit(ctx, "a", "count")
	if !errors.Is(err, engine.ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want engine.ErrDeadlineExceeded", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v does not unwrap to context.DeadlineExceeded", err)
	}
	if m := s.Metrics(); m.DeadlineExceeded != 1 {
		t.Fatalf("deadline metric = %d, want 1", m.DeadlineExceeded)
	}
}

// A deadline expiring while the query is queued (not executing) must
// surface the same typed error.
func TestDeadlineInQueue(t *testing.T) {
	s := newTestServer(t, func(o *Options) {
		o.MaxConcurrent = 1
		o.ShedThreshold = 100
	})
	st, err := s.Stream(context.Background(), "a", "count")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, err = s.Submit(ctx, "b", "count")
	if !errors.Is(err, engine.ErrDeadlineExceeded) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued deadline err = %v, want typed deadline", err)
	}
}

// A client that cancels (rather than times out) while queued gets its
// cancellation back, and the submission is counted as a failure — not
// dropped from the outcome counters.
func TestCancelInQueue(t *testing.T) {
	s := newTestServer(t, func(o *Options) {
		o.MaxConcurrent = 1
		o.ShedThreshold = 100
	})
	st, err := s.Stream(context.Background(), "a", "count")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := s.Submit(ctx, "b", "count")
		done <- err
	}()
	for i := 0; i < 2000 && s.adm.load() < 2; i++ { // wait until b is queued behind a
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) || errors.Is(err, engine.ErrDeadlineExceeded) {
		t.Fatalf("queued cancel err = %v, want plain context.Canceled", err)
	}
	st.Close()
	assertOutcomesBalance(t, s, "a cancel while queued")
	if m := s.Metrics(); m.Submitted != 2 || m.Completed != 1 || m.Failed != 1 {
		t.Fatalf("metrics = %+v, want 2 submitted: 1 completed, 1 failed", m)
	}
}

// TestPlanCacheSurvivesPublish pins the plan cache's key: the rewrite
// depends on the query, the design and the statistics gathered at start-up,
// never the data itself, so a write-path publish keeps the cached plan, and
// the execution it serves still sees the new data.
func TestPlanCacheSurvivesPublish(t *testing.T) {
	db, cfg := testServeDB()
	s := newTestServer(t, func(o *Options) {
		pdb, err := partition.Apply(db, cfg)
		if err != nil {
			t.Fatal(err)
		}
		o.DB, o.PDB = nil, pdb
	})
	ctx := context.Background()
	r1, err := s.Submit(ctx, "a", "count")
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.Submit(ctx, "a", "count")
	if err != nil {
		t.Fatal(err)
	}
	if r1.CacheHit || !r2.CacheHit {
		t.Fatalf("cache hits = %v,%v, want miss then hit", r1.CacheHit, r2.CacheHit)
	}

	// Publish a new epoch through the write path.
	l := bulkload.NewLoader(s.pdb, cfg)
	if err := l.Insert("fact", value.Tuple{int64(100), int64(1)}); err != nil {
		t.Fatal(err)
	}
	r3, err := s.Submit(ctx, "a", "count")
	if err != nil {
		t.Fatal(err)
	}
	if !r3.CacheHit {
		t.Fatal("publish evicted the plan: the cache must not key on the data epoch")
	}
	if r3.Epoch <= r2.Epoch {
		t.Fatalf("epoch did not advance: %d -> %d", r2.Epoch, r3.Epoch)
	}
	if r3.Rows[0][0] != 41 {
		t.Fatalf("post-publish count = %v, want 41", r3.Rows[0][0])
	}
	if _, _, size := s.plans.stats(); size != 1 {
		t.Fatalf("plan cache holds %d entries, want 1", size)
	}
}

// TestRetryBudgetBoundsAmplification pins the anti-amplification
// property: under a total fault storm the server stops spending retries
// once the budget drains, instead of multiplying the storm. Ten failing
// submissions at three attempts each want 20 retries; the budget holds 10.
func TestRetryBudgetBoundsAmplification(t *testing.T) {
	storm := map[int]int{0: 99, 1: 99, 2: 99, 3: 99}
	s := newTestServer(t, func(o *Options) {
		o.MaxAttempts = 3
		o.Cluster = cluster.Options{Nodes: 4, TripAfter: 1 << 30} // breakers out of the way
		o.FaultFor = func(seq int64, attempt int) *fault.Policy {
			return &fault.Policy{Seed: seq, FlakyNodes: storm}
		}
	})
	for i := 0; i < 10; i++ {
		if _, err := s.Submit(context.Background(), "a", "count"); err == nil {
			t.Fatal("query succeeded under total fault storm")
		}
	}
	m := s.Metrics()
	if m.Retries > retryBudgetCap {
		t.Fatalf("spent %d retries with budget %d: retry amplification", m.Retries, retryBudgetCap)
	}
	if m.RetryBudgetDenied == 0 {
		t.Fatal("budget never denied a retry under a 10-query storm")
	}
	if m.Failed != 10 {
		t.Fatalf("failed = %d, want 10 typed failures", m.Failed)
	}
}

// TestStreamBackpressure pins the delivery contract: chunks of ChunkRows
// rows, each capped at its own length, and the serving slot held until the
// stream drains.
func TestStreamBackpressure(t *testing.T) {
	s := newTestServer(t, func(o *Options) {
		o.ChunkRows = 4
	})
	st, err := s.Stream(context.Background(), "a", "scan")
	if err != nil {
		t.Fatal(err)
	}
	// 40 rows in chunks of 4 = 10 chunks.
	chunk, err := st.Next()
	if err != nil {
		t.Fatal(err)
	}
	if len(chunk) != 4 || cap(chunk) != 4 {
		t.Fatalf("first chunk has len %d cap %d, want 4 and 4", len(chunk), cap(chunk))
	}
	if used := func() int { s.adm.mu.Lock(); defer s.adm.mu.Unlock(); return s.adm.used }(); used != 1 {
		t.Fatalf("serving slots used = %d while stream undelivered, want 1", used)
	}
	resp, err := st.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Rows) != 36 {
		t.Fatalf("drained %d rows after the first chunk, want 36", len(resp.Rows))
	}
	for start := time.Now(); ; {
		used := func() int { s.adm.mu.Lock(); defer s.adm.mu.Unlock(); return s.adm.used }()
		if used == 0 {
			break
		}
		if time.Since(start) > time.Second {
			t.Fatalf("slot not released after drain (used=%d)", used)
		}
		time.Sleep(time.Millisecond)
	}
}

// An abandoned stream must release its slot when the query deadline
// fires, even though the consumer never calls Close.
func TestAbandonedStreamReleasedByDeadline(t *testing.T) {
	s := newTestServer(t, func(o *Options) { o.ChunkRows = 4 })
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := s.Stream(ctx, "a", "scan"); err != nil {
		t.Fatal(err)
	}
	// No Close, no Drain: the deadline must clean up.
	for start := time.Now(); ; {
		used := func() int { s.adm.mu.Lock(); defer s.adm.mu.Unlock(); return s.adm.used }()
		if used == 0 {
			break
		}
		if time.Since(start) > 2*time.Second {
			t.Fatalf("abandoned stream still holds %d slots after deadline", used)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestGracefulDrain pins Close's contract: in-flight queries finish,
// new submissions get the typed closed rejection, and no goroutine of the
// server survives.
func TestGracefulDrain(t *testing.T) {
	verifyLeaks := testutil.CheckGoroutineLeaks(t)
	s := newTestServer(t, func(o *Options) {
		o.FaultFor = func(seq int64, attempt int) *fault.Policy {
			return &fault.Policy{Seed: seq, StragglerProb: 1, StragglerDelay: 50 * time.Millisecond}
		}
	})
	results := make(chan error, 4)
	for i := 0; i < 4; i++ {
		go func() {
			_, err := s.Submit(context.Background(), "a", "count")
			results <- err
		}()
	}
	// Let them pass admission before draining.
	time.Sleep(20 * time.Millisecond)
	if err := s.Close(context.Background()); err != nil {
		t.Fatalf("graceful close: %v", err)
	}
	if _, err := s.Submit(context.Background(), "a", "count"); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("post-close submit err = %v, want ErrServerClosed", err)
	}
	for i := 0; i < 4; i++ {
		if err := <-results; err != nil {
			t.Fatalf("in-flight query killed by graceful drain: %v", err)
		}
	}
	verifyLeaks()
}

// TestForcedDrain pins the other half: when the drain context expires,
// in-flight queries are cancelled, Close still joins everything, and no
// goroutine leaks.
func TestForcedDrain(t *testing.T) {
	verifyLeaks := testutil.CheckGoroutineLeaks(t)
	s := newTestServer(t, func(o *Options) {
		o.FaultFor = func(seq int64, attempt int) *fault.Policy {
			return &fault.Policy{Seed: seq, StragglerProb: 1, StragglerDelay: 10 * time.Second}
		}
	})
	result := make(chan error, 1)
	go func() {
		_, err := s.Submit(context.Background(), "a", "count")
		result <- err
	}()
	time.Sleep(20 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	if err := s.Close(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("forced close err = %v, want DeadlineExceeded", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("forced drain waited for the straggler instead of cancelling it")
	}
	if err := <-result; err == nil {
		t.Fatal("query survived a forced drain")
	}
	verifyLeaks()
}
