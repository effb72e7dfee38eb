package tpch

import (
	"fmt"
	"math/rand"

	"pref/internal/table"
	"pref/internal/value"
)

// Cardinalities at scale factor 1, per the TPC-H specification.
const (
	sfSupplier = 10_000
	sfCustomer = 150_000
	sfPart     = 200_000
	sfOrders   = 1_500_000
)

// TPCH bundles a generated database with its scale factor.
type TPCH struct {
	DB *table.Database
	SF float64
}

var (
	regions  = []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}
	nations  = []string{"ALGERIA", "ARGENTINA", "BRAZIL", "CANADA", "EGYPT", "ETHIOPIA", "FRANCE", "GERMANY", "INDIA", "INDONESIA", "IRAN", "IRAQ", "JAPAN", "JORDAN", "KENYA", "MOROCCO", "MOZAMBIQUE", "PERU", "CHINA", "ROMANIA", "SAUDI ARABIA", "VIETNAM", "RUSSIA", "UNITED KINGDOM", "UNITED STATES"}
	segments = []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"}
	prios    = []string{"1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"}
	modes    = []string{"REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"}
	instr    = []string{"DELIVER IN PERSON", "COLLECT COD", "NONE", "TAKE BACK RETURN"}
	brands   = []string{"Brand#11", "Brand#12", "Brand#13", "Brand#21", "Brand#22", "Brand#23", "Brand#31", "Brand#32", "Brand#33", "Brand#41", "Brand#42", "Brand#43", "Brand#51", "Brand#52", "Brand#53"}
	types    = []string{"PROMO ANODIZED TIN", "PROMO BURNISHED COPPER", "PROMO PLATED STEEL", "ECONOMY ANODIZED STEEL", "ECONOMY BRUSHED NICKEL", "STANDARD POLISHED BRASS", "STANDARD PLATED TIN", "MEDIUM BURNISHED NICKEL", "MEDIUM PLATED COPPER", "LARGE BRUSHED BRASS", "LARGE POLISHED COPPER", "SMALL PLATED STEEL"}
	conts    = []string{"SM CASE", "SM BOX", "MED BAG", "MED BOX", "LG CASE", "LG BOX", "JUMBO PACK", "WRAP JAR"}
)

// nations[i] belongs to region i%5, as in the dbgen seed data.

// Generate builds a deterministic TPC-H database at the given scale
// factor. SF 1 matches the official cardinalities; experiments here run
// at reduced SF with identical ratios, so locality/redundancy results are
// unchanged (they are scale-free).
func Generate(sf float64, seed int64) *TPCH {
	if sf <= 0 {
		sf = 0.001
	}
	rng := rand.New(rand.NewSource(seed))
	db := table.NewDatabase(Schema())

	nSupp := atLeast(4, sf*sfSupplier)
	nCust := atLeast(10, sf*sfCustomer)
	nPart := atLeast(8, sf*sfPart)
	nOrd := atLeast(20, sf*sfOrders)

	// region
	rt := db.Schema.Table("region")
	rows := newRowSlab(db, "region", len(regions))
	for i, name := range regions {
		rows.add(value.Tuple{
			int64(i), rt.Dict("name").Code(name), rt.Dict("comment").Code("region comment"),
		})
	}

	// nation: nation i in region i%5.
	nt := db.Schema.Table("nation")
	rows = newRowSlab(db, "nation", len(nations))
	for i, name := range nations {
		rows.add(value.Tuple{
			int64(i), nt.Dict("name").Code(name), int64(i % 5), nt.Dict("comment").Code("nation comment"),
		})
	}

	// supplier
	st := db.Schema.Table("supplier")
	sName, sAddr, sPhone := st.Dict("name"), st.Dict("address"), st.Dict("phone")
	sComment := newChoices(st.Dict("comment"), suppComments...)
	rows = newRowSlab(db, "supplier", nSupp)
	for i := 0; i < nSupp; i++ {
		rows.add(value.Tuple{
			int64(i + 1),
			sName.Code(fmt.Sprintf("Supplier#%09d", i+1)),
			sAddr.Code(fmt.Sprintf("addr-s-%d", i+1)),
			int64(rng.Intn(25)),
			sPhone.Code(fmt.Sprintf("%d-555-%04d", 10+i%25, i%10000)),
			value.FromMoney(-999.99 + rng.Float64()*10998.98),
			sComment.code(suppComment(i)),
		})
	}

	// customer: phone country code 10..34 (nationkey+10 per spec).
	ct := db.Schema.Table("customer")
	cName, cAddr, cPhone := ct.Dict("name"), ct.Dict("address"), ct.Dict("phone")
	cSegment, cComment := newChoices(ct.Dict("mktsegment"), segments...), newChoices(ct.Dict("comment"), "customer comment")
	rows = newRowSlab(db, "customer", nCust)
	for i := 0; i < nCust; i++ {
		nk := int64(rng.Intn(25))
		rows.add(value.Tuple{
			int64(i + 1),
			cName.Code(fmt.Sprintf("Customer#%09d", i+1)),
			cAddr.Code(fmt.Sprintf("addr-c-%d", i+1)),
			nk,
			cPhone.Code(fmt.Sprintf("%d-555-%04d", nk+10, i%10000)),
			nk + 10,
			value.FromMoney(-999.99 + rng.Float64()*10998.98),
			cSegment.code(rng.Intn(len(segments))),
			cComment.code(0),
		})
	}

	// part
	pt := db.Schema.Table("part")
	pName := pt.Dict("name")
	pMfgr := newChoicesOf(pt.Dict("mfgr"), 5, func(i int) string { return fmt.Sprintf("Manufacturer#%d", 1+i) })
	pBrand, pType := newChoices(pt.Dict("brand"), brands...), newChoices(pt.Dict("type"), types...)
	pContainer, pComment := newChoices(pt.Dict("container"), conts...), newChoices(pt.Dict("comment"), "part comment")
	rows = newRowSlab(db, "part", nPart)
	for i := 0; i < nPart; i++ {
		rows.add(value.Tuple{
			int64(i + 1),
			pName.Code(fmt.Sprintf("part name %d", i+1)),
			pMfgr.code(i % 5),
			pBrand.code(rng.Intn(len(brands))),
			pType.code(rng.Intn(len(types))),
			int64(1 + rng.Intn(50)),
			pContainer.code(rng.Intn(len(conts))),
			value.FromMoney(900 + float64(i%200)/10),
			pComment.code(0),
		})
	}

	// partsupp: 4 suppliers per part via the dbgen permutation so every
	// generated lineitem (partkey, suppkey) hits an existing partsupp row.
	psComment := newChoices(db.Schema.Table("partsupp").Dict("comment"), "partsupp comment")
	rows = newRowSlab(db, "partsupp", 4*nPart)
	for p := 1; p <= nPart; p++ {
		for j := 0; j < 4; j++ {
			rows.add(value.Tuple{
				int64(p), psSuppkey(p, j, nSupp),
				int64(1 + rng.Intn(9999)),
				value.FromMoney(1 + rng.Float64()*999),
				psComment.code(0),
			})
		}
	}

	// orders + lineitem. Per the spec only two thirds of customers ever
	// place an order (custkey % 3 != 0 in our encoding).
	ot := db.Schema.Table("orders")
	oStatus, oPriority := newChoices(ot.Dict("orderstatus"), "O", "F"), newChoices(ot.Dict("orderpriority"), prios...)
	// 1000 clerks serve every order; each name is formatted once.
	oClerk := newChoicesOf(ot.Dict("clerk"), 1001, func(n int) string { return fmt.Sprintf("Clerk#%09d", n) })
	oComment := newChoices(ot.Dict("comment"), orderComments...)
	lt := db.Schema.Table("lineitem")
	lFlag, lStatus := newChoices(lt.Dict("returnflag"), "N", "R", "A"), newChoices(lt.Dict("linestatus"), "O", "F")
	lInstruct, lMode := newChoices(lt.Dict("shipinstruct"), instr...), newChoices(lt.Dict("shipmode"), modes...)
	lComment := newChoices(lt.Dict("comment"), "lineitem comment")
	orders := newRowSlab(db, "orders", nOrd)
	// An order has 1 to 7 lines, 4 on average.
	lines := newRowSlab(db, "lineitem", 4*nOrd)
	startDate := value.FromDate(1992, 1, 1)
	endDate := value.FromDate(1998, 8, 2)
	dateRange := endDate - startDate
	// A line shipped or received by fillDate is filled; an order placed
	// before statusDate is final.
	fillDate := value.FromDate(1995, 6, 17)
	statusDate := value.FromDate(1995, 1, 1)
	for o := 1; o <= nOrd; o++ {
		ck := int64(1 + rng.Intn(nCust))
		for ck%3 == 0 {
			ck = int64(1 + rng.Intn(nCust))
		}
		odate := startDate + rng.Int63n(dateRange)
		nLines := 1 + rng.Intn(7)
		var total int64
		for ln := 1; ln <= nLines; ln++ {
			pk := 1 + rng.Intn(nPart)
			sk := psSuppkey(pk, rng.Intn(4), nSupp)
			qty := int64(1 + rng.Intn(50))
			price := value.FromMoney(float64(qty) * (900 + float64(pk%200)/10) / 10)
			disc := int64(rng.Intn(11))
			tax := int64(rng.Intn(9))
			ship := odate + 1 + rng.Int63n(121)
			commit := odate + 30 + rng.Int63n(61)
			receipt := ship + 1 + rng.Int63n(30)
			rf := 0 // N
			if receipt <= fillDate {
				rf = 1 + rng.Intn(2) // R or A
			}
			ls := 0 // O
			if ship <= fillDate {
				ls = 1 // F
			}
			lines.add(value.Tuple{
				int64(o), int64(pk), sk, int64(ln), qty, price, disc, tax,
				lFlag.code(rf),
				lStatus.code(ls),
				ship, commit, receipt,
				lInstruct.code(rng.Intn(len(instr))),
				lMode.code(rng.Intn(len(modes))),
				lComment.code(0),
			})
			total += price * (100 - disc) / 100
		}
		status := 0 // O
		if odate < statusDate {
			status = 1 // F
		}
		orders.add(value.Tuple{
			int64(o), ck,
			oStatus.code(status),
			total,
			odate,
			oPriority.code(rng.Intn(len(prios))),
			oClerk.code(1 + rng.Intn(1000)),
			0,
			oComment.code(orderComment(rng)),
		})
	}
	return &TPCH{DB: db, SF: sf}
}

// rowSlab appends generated tuples to one table, carving them from shared
// slabs so a row costs no allocation of its own.
type rowSlab struct {
	d     *table.Data
	slab  []int64
	chunk int // rows per slab
}

// newRowSlab presizes table name of db for about n rows.
func newRowSlab(db *table.Database, name string, n int) *rowSlab {
	d := db.Tables[name]
	d.Rows = make([]value.Tuple, 0, n)
	return &rowSlab{d: d, chunk: min(n, 4096)}
}

// add appends a copy of row t.
func (r *rowSlab) add(t value.Tuple) {
	w := len(t)
	if len(r.slab) < w {
		r.slab = make([]int64, w*r.chunk)
	}
	row := value.Tuple(r.slab[:w:w])
	r.slab = r.slab[w:]
	copy(row, t)
	r.d.MustAppend(row)
}

// choices codes the strings of one column that the generator picks from
// a fixed list, by index: a string is coded through Dict.Code the first
// time it is picked, so codes come in the order the generator first meets
// the strings, and every later pick is a slice read.
type choices struct {
	d     *value.Dict
	name  func(i int) string
	codes []int64 // -1 until coded
}

// newChoices returns the choices of the given strings.
func newChoices(d *value.Dict, s ...string) *choices {
	return newChoicesOf(d, len(s), func(i int) string { return s[i] })
}

// newChoicesOf returns n choices whose i-th string is name(i), formatted
// on first use.
func newChoicesOf(d *value.Dict, n int, name func(i int) string) *choices {
	c := &choices{d: d, name: name, codes: make([]int64, n)}
	for i := range c.codes {
		c.codes[i] = -1
	}
	return c
}

// code returns the code of choice i.
func (c *choices) code(i int) int64 {
	if c.codes[i] < 0 {
		c.codes[i] = c.d.Code(c.name(i))
	}
	return c.codes[i]
}

// psSuppkey is dbgen's part→supplier permutation: supplier j of part p.
func psSuppkey(p, j, nSupp int) int64 {
	return int64((p+j*(nSupp/4+(p-1)/nSupp))%nSupp + 1)
}

// suppComments are the supplier comments; suppComment picks one.
var suppComments = []string{"Customer Complaints supplier", "supplier comment"}

// suppComment plants the Q16 "Customer Complaints" marker in a fixed
// fraction of supplier comments, as dbgen does.
func suppComment(i int) int {
	if i%200 == 7 {
		return 0
	}
	return 1
}

// orderComments are the order comments; orderComment picks one.
var orderComments = []string{"special requests order", "order comment"}

// orderComment plants the Q13 "special requests" marker in a fraction of
// order comments.
func orderComment(rng *rand.Rand) int {
	if rng.Intn(100) < 2 {
		return 0
	}
	return 1
}

func atLeast(min int, v float64) int {
	n := int(v)
	if n < min {
		return min
	}
	return n
}

// Code looks up the dictionary code of a string constant for a column;
// it panics if the constant was never generated (a query-construction
// bug at experiment scale).
func (t *TPCH) Code(tbl, col, s string) int64 {
	d := t.DB.Schema.Table(tbl).Dict(col)
	if c, ok := d.Lookup(s); ok {
		return c
	}
	// Unseen constants get a fresh code: predicates simply match nothing,
	// mirroring a constant absent from the generated data.
	return d.Code(s)
}
