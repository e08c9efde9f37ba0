package tpch

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"

	"certsql/internal/schema"
	"certsql/internal/table"
	"certsql/internal/value"
)

// Config controls instance generation.
//
// The paper uses DBGen instances from 1 GB (scale factor 1, about
// 8.7 · 10⁶ tuples) up to 10 GB for the performance experiments, and
// DataFiller instances scaled down by 10³ for the false-positive
// experiments. This in-memory reproduction uses the same proportions at
// micro scale: ScaleFactor 0.001 corresponds to the paper's scaled-down
// DataFiller instances; the relative row counts between tables follow
// the TPC-H specification (customer : orders : lineitem ≈ 1 : 10 : 40).
type Config struct {
	// ScaleFactor scales all row counts; 1.0 is the TPC-H 1 GB scale.
	ScaleFactor float64
	// Seed makes generation deterministic.
	Seed int64
	// NullRate, when positive, injects nulls into nullable attributes
	// with this probability (the paper's "null rate", Section 3).
	NullRate float64
}

// Sizes reports the row counts a configuration produces.
type Sizes struct {
	Suppliers, Parts, PartSupps, Customers, Orders, Lineitems int
}

// Sizes computes row counts from the scale factor, with small-instance
// floors so that the schema's join structure is always exercised.
func (c Config) Sizes() Sizes {
	n := func(base int, min int) int {
		v := int(float64(base) * c.ScaleFactor)
		if v < min {
			return min
		}
		return v
	}
	s := Sizes{
		Suppliers: n(10_000, 5),
		Parts:     n(200_000, 20),
		Customers: n(150_000, 10),
	}
	s.PartSupps = s.Parts * 4
	s.Orders = s.Customers * 10
	return s
}

// Generate produces a complete (null-free) TPC-H instance, then injects
// nulls if Config.NullRate is positive. Generation is deterministic in
// the seed.
//
// The generator packs each relation's rows in position order and keeps
// them until the end, so injection edits them in place — no reader has
// seen them yet — and the database takes them as its storage (Load):
// every value is written once, and every relation is read in memory
// order.
func Generate(cfg Config) *table.Database {
	rng := rand.New(rand.NewSource(cfg.Seed))
	db := table.NewDatabase(Schema())
	sz := cfg.Sizes()
	g := &generator{rng: rng, db: db, staged: map[string]*staged{}}
	for _, name := range db.Schema.Names() {
		g.staged[name] = &staged{}
	}

	g.regions()
	g.nations()
	g.suppliers(sz.Suppliers)
	g.parts(sz.Parts)
	g.partsupps(sz.Parts, sz.Suppliers)
	g.customers(sz.Customers)
	g.ordersAndLineitems(sz.Orders, sz.Customers, sz.Parts, sz.Suppliers)

	for _, name := range db.Schema.Names() {
		rows := g.staged[name].rows
		if cfg.NullRate > 0 {
			rel, _ := db.Schema.Relation(name)
			for _, r := range rows {
				nullify(db, rel, r, cfg.NullRate, rng)
			}
		}
		if err := db.Load(name, rows); err != nil {
			panic(fmt.Sprintf("tpch: generator bug: %v", err))
		}
	}
	return db
}

type generator struct {
	rng    *rand.Rand
	db     *table.Database
	staged map[string]*staged
	items  []item // ordersAndLineitems' per-order buffer
}

// staged is one relation's generated rows, packed in insertion order.
type staged struct {
	rows []table.Row
	pack table.Packer
}

// grow makes room for n more rows of rel, so a relation whose size is
// known up front is packed into one slab.
func (g *generator) grow(rel string, n int) {
	s := g.staged[rel]
	r, _ := g.db.Schema.Relation(rel)
	s.rows = slices.Grow(s.rows, n)
	s.pack.Grow(n * r.Arity())
}

// insert stages a copy of row; the caller may reuse row.
func (g *generator) insert(rel string, row table.Row) {
	s := g.staged[rel]
	s.rows = append(s.rows, s.pack.Pack(row))
}

func (g *generator) comment() value.Value {
	n := 3 + g.rng.Intn(5)
	words := make([]string, n)
	for i := range words {
		words[i] = commentWords[g.rng.Intn(len(commentWords))]
	}
	return value.Str(strings.Join(words, " "))
}

func (g *generator) phone(nationKey int64) value.Value {
	return value.Str(fmt.Sprintf("%d-%03d-%03d-%04d",
		10+nationKey, g.rng.Intn(900)+100, g.rng.Intn(900)+100, g.rng.Intn(9000)+1000))
}

func (g *generator) money(lo, hi float64) value.Value {
	cents := int64((lo + g.rng.Float64()*(hi-lo)) * 100)
	return value.Float(float64(cents) / 100)
}

var (
	startDate = value.MustDate("1992-01-01").AsDate()
	endDate   = value.MustDate("1998-08-02").AsDate()
)

func (g *generator) regions() {
	g.grow("region", len(Regions))
	for i, name := range Regions {
		g.insert("region", table.Row{value.Int(int64(i)), value.Str(name), g.comment()})
	}
}

func (g *generator) nations() {
	g.grow("nation", len(Nations))
	for i, n := range Nations {
		g.insert("nation", table.Row{
			value.Int(int64(i)), value.Str(n.Name), value.Int(n.RegionKey), g.comment(),
		})
	}
}

func (g *generator) suppliers(n int) {
	g.grow("supplier", n)
	for i := 1; i <= n; i++ {
		nat := int64(g.rng.Intn(len(Nations)))
		g.insert("supplier", table.Row{
			value.Int(int64(i)),
			value.Str(fmt.Sprintf("Supplier#%09d", i)),
			value.Str(fmt.Sprintf("%d %s Way", g.rng.Intn(999)+1, commentWords[g.rng.Intn(len(commentWords))])),
			value.Int(nat),
			g.phone(nat),
			g.money(-999.99, 9999.99),
			g.comment(),
		})
	}
}

// partName composes p_name from five distinct color words, per the
// TPC-H specification; Q4's LIKE '%color%' predicate selects on it.
func (g *generator) partName() value.Value {
	idx := g.rng.Perm(len(Colors))[:5]
	words := make([]string, 5)
	for i, j := range idx {
		words[i] = Colors[j]
	}
	return value.Str(strings.Join(words, " "))
}

func (g *generator) parts(n int) {
	g.grow("part", n)
	for i := 1; i <= n; i++ {
		g.insert("part", table.Row{
			value.Int(int64(i)),
			g.partName(),
			value.Str(fmt.Sprintf("Manufacturer#%d", g.rng.Intn(5)+1)),
			value.Str(fmt.Sprintf("Brand#%d%d", g.rng.Intn(5)+1, g.rng.Intn(5)+1)),
			value.Str(typeSyllable1[g.rng.Intn(len(typeSyllable1))] + " " +
				typeSyllable2[g.rng.Intn(len(typeSyllable2))] + " " +
				typeSyllable3[g.rng.Intn(len(typeSyllable3))]),
			value.Int(int64(g.rng.Intn(50) + 1)),
			value.Str(containerSizes[g.rng.Intn(len(containerSizes))] + " " +
				containerKinds[g.rng.Intn(len(containerKinds))]),
			g.money(900, 2000),
			g.comment(),
		})
	}
}

func (g *generator) partsupps(parts, suppliers int) {
	g.grow("partsupp", 4*parts)
	for p := 1; p <= parts; p++ {
		for k := 0; k < 4; k++ {
			s := (p+k*(suppliers/4+1))%suppliers + 1
			g.insert("partsupp", table.Row{
				value.Int(int64(p)),
				value.Int(int64(s)),
				value.Int(int64(g.rng.Intn(9999) + 1)),
				g.money(1, 1000),
				g.comment(),
			})
		}
	}
}

func (g *generator) customers(n int) {
	g.grow("customer", n)
	for i := 1; i <= n; i++ {
		nat := int64(g.rng.Intn(len(Nations)))
		g.insert("customer", table.Row{
			value.Int(int64(i)),
			value.Str(fmt.Sprintf("Customer#%09d", i)),
			value.Str(fmt.Sprintf("%d %s Street", g.rng.Intn(999)+1, commentWords[g.rng.Intn(len(commentWords))])),
			value.Int(nat),
			g.phone(nat),
			g.money(-999.99, 9999.99),
			value.Str(Segments[g.rng.Intn(len(Segments))]),
			g.comment(),
		})
	}
}

// item is one lineitem of the order being generated.
type item struct {
	part, supp          int64
	qty                 int64
	price               float64
	ship, commit, recpt int64
}

// ordersAndLineitems generates orders with 1–7 lineitems each. A third
// of customers place no orders (per the TPC-H spec), which matters for
// Q2 (customers without recent orders). Order status is 'F' (finalized)
// when every lineitem has been received, mirroring DBGen's derivation.
func (g *generator) ordersAndLineitems(orders, customers, parts, suppliers int) {
	today := endDate - 100
	g.grow("orders", orders)
	for o := 1; o <= orders; o++ {
		// Customers with custkey ≡ 0 (mod 3) never place orders.
		cust := int64(g.rng.Intn(customers) + 1)
		for cust%3 == 0 {
			cust = int64(g.rng.Intn(customers) + 1)
		}
		orderDate := startDate + int64(g.rng.Intn(int(endDate-startDate-121)))
		nItems := 1 + g.rng.Intn(7)
		allReceived := true
		var total float64

		items := slices.Grow(g.items[:0], nItems)[:nItems]
		g.items = items
		for i := range items {
			it := &items[i]
			it.part = int64(g.rng.Intn(parts) + 1)
			it.supp = int64(g.rng.Intn(suppliers) + 1)
			it.qty = int64(g.rng.Intn(50) + 1)
			it.price = float64(it.qty) * (900 + g.rng.Float64()*1100)
			it.ship = orderDate + int64(g.rng.Intn(121)+1)
			it.commit = orderDate + int64(g.rng.Intn(91)+30)
			it.recpt = it.ship + int64(g.rng.Intn(30)+1)
			if it.recpt > today {
				allReceived = false
			}
			total += it.price
		}
		status := "O"
		if allReceived {
			status = "F"
		} else if g.rng.Intn(2) == 0 {
			status = "P"
		}

		g.insert("orders", table.Row{
			value.Int(int64(o)),
			value.Int(cust),
			value.Str(status),
			value.Float(float64(int64(total*100)) / 100),
			value.Date(orderDate),
			value.Str(Priorities[g.rng.Intn(len(Priorities))]),
			value.Str(fmt.Sprintf("Clerk#%09d", g.rng.Intn(1000)+1)),
			value.Int(0),
			g.comment(),
		})
		for i, it := range items {
			flag := "N"
			if it.recpt <= today && g.rng.Intn(2) == 0 {
				flag = "R"
			} else if it.recpt <= today {
				flag = "A"
			}
			lineStatus := "O"
			if it.ship <= today {
				lineStatus = "F"
			}
			g.insert("lineitem", table.Row{
				value.Int(int64(o)),
				value.Int(it.part),
				value.Int(it.supp),
				value.Int(int64(i + 1)),
				value.Int(it.qty),
				value.Float(float64(int64(it.price*100)) / 100),
				value.Float(float64(g.rng.Intn(11)) / 100),
				value.Float(float64(g.rng.Intn(9)) / 100),
				value.Str(flag),
				value.Str(lineStatus),
				value.Date(it.ship),
				value.Date(it.commit),
				value.Date(it.recpt),
				value.Str(ShipInstructs[g.rng.Intn(len(ShipInstructs))]),
				value.Str(ShipModes[g.rng.Intn(len(ShipModes))]),
				g.comment(),
			})
		}
	}
}

// InjectNulls replaces each nullable attribute value with a fresh
// marked null with probability rate — the coin-flip procedure of
// Section 3 of the paper. Key attributes and other non-nullable
// attributes are never nulled. Rows are replaced rather than mutated,
// so injecting into a Clone leaves the original database intact.
func InjectNulls(db *table.Database, rate float64, rng *rand.Rand) {
	InjectNullsInto(db, rate, rng)
}

// InjectNullsInto is InjectNulls restricted to the named tables (all
// tables when none are named). The paper's experiments choose which
// attributes receive nulls per scenario; restricting injection leaves
// the remaining tables complete, so their nullable columns stay
// null-free in the data, which only a plan that read the data could
// exploit. Each table is rebuilt in one ordered pass
// (Database.Rewrite), so its rows stay packed in position order.
func InjectNullsInto(db *table.Database, rate float64, rng *rand.Rand, tables ...string) {
	names := db.Schema.Names()
	if len(tables) > 0 {
		names = tables
	}
	for _, name := range names {
		rel, _ := db.Schema.Relation(name)
		// The database rejects a null in a NOT NULL attribute.
		if err := db.Rewrite(name, func(r table.Row) bool { return nullify(db, rel, r, rate, rng) }); err != nil {
			panic(err) // only nullable attrs are touched
		}
	}
}

// nullify draws, for each nullable attribute of r in order, whether to
// replace its value with a fresh marked null (probability rate), and
// does so in place; it reports whether it replaced any. The draws and
// the marks are those of the paper's coin-flip procedure, so an
// instance is determined by its seed.
func nullify(db *table.Database, rel *schema.Relation, r table.Row, rate float64, rng *rand.Rand) bool {
	changed := false
	for i, a := range rel.Attrs {
		if a.Nullable && rng.Float64() < rate {
			r[i] = db.FreshNull()
			changed = true
		}
	}
	return changed
}
