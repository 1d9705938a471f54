package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"orchestra/internal/tuple"
)

// provConfig generates provenance sets over a bounded member universe.
var provConfig = &quick.Config{
	MaxCount: 300,
	Values: func(vals []reflect.Value, rng *rand.Rand) {
		for i := range vals {
			n := 1 + rng.Intn(4) // 64..256-bit sets
			p := make(Prov, n)
			for j := range p {
				p[j] = rng.Uint64() & rng.Uint64() // sparse-ish
			}
			vals[i] = reflect.ValueOf(p)
		}
	},
}

func TestProvKeyRoundTrip(t *testing.T) {
	f := func(p Prov) bool {
		q := ProvFromKey(p.Key())
		// Round trip preserves membership for every bit position.
		for i := 0; i < len(p)*64; i++ {
			if p.Has(i) != q.Has(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, provConfig); err != nil {
		t.Fatal(err)
	}
}

func TestProvKeyCanonical(t *testing.T) {
	// Equal sets encode equally regardless of allocation width.
	f := func(p Prov) bool {
		widened := make(Prov, len(p)+2)
		copy(widened, p)
		return widened.Key() == p.Key()
	}
	if err := quick.Check(f, provConfig); err != nil {
		t.Fatal(err)
	}
}

func TestProvUnionProperties(t *testing.T) {
	f := func(a, b Prov) bool {
		u := a.Union(b)
		// Union is a superset of both and commutative.
		for i := 0; i < len(u)*64; i++ {
			if (a.Has(i) || b.Has(i)) != u.Has(i) {
				return false
			}
		}
		return u.Key() == b.Union(a).Key()
	}
	if err := quick.Check(f, provConfig); err != nil {
		t.Fatal(err)
	}
}

func TestProvIntersects(t *testing.T) {
	f := func(a, b Prov) bool {
		want := false
		for i := 0; i < 256; i++ {
			if a.Has(i) && b.Has(i) {
				want = true
				break
			}
		}
		return a.Intersects(b) == want && b.Intersects(a) == want
	}
	if err := quick.Check(f, provConfig); err != nil {
		t.Fatal(err)
	}
	// Union always intersects its non-empty operands.
	g := func(a, b Prov) bool {
		if a.Count() == 0 {
			return true
		}
		return a.Union(b).Intersects(a)
	}
	if err := quick.Check(g, provConfig); err != nil {
		t.Fatal(err)
	}
}

func TestProvSetHasCount(t *testing.T) {
	p := NewProv(200)
	members := []int{0, 1, 63, 64, 127, 128, 199}
	for _, m := range members {
		p.Set(m)
	}
	for _, m := range members {
		if !p.Has(m) {
			t.Fatalf("missing bit %d", m)
		}
	}
	if p.Has(50) || p.Has(198) {
		t.Fatal("spurious bits")
	}
	if p.Count() != len(members) {
		t.Fatalf("count %d", p.Count())
	}
	c := p.Clone()
	c.Set(50)
	if p.Has(50) {
		t.Fatal("clone aliases original")
	}
}

func TestBatchCodecRoundTripWithProvenance(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(40)
		ts := make([]Tup, n)
		for i := range ts {
			ts[i] = Tup{
				Row:  genR(1, rng)[0],
				Prov: ProvOf(64, rng.Intn(64), rng.Intn(64)),
			}
		}
		enc, err := encodeTupBatch(ts, uint32(trial), true)
		if err != nil {
			t.Fatal(err)
		}
		dec, phase, err := decodeTupBatch(enc)
		if err != nil {
			t.Fatal(err)
		}
		if phase != uint32(trial) || len(dec) != n {
			t.Fatalf("phase %d len %d", phase, len(dec))
		}
		for i := range dec {
			if !dec[i].Row.Equal(ts[i].Row) {
				t.Fatalf("row %d mismatch", i)
			}
			if dec[i].Prov.Key() != ts[i].Prov.Key() {
				t.Fatalf("prov %d mismatch", i)
			}
		}
	}
}

// TestShipConsumerPurgeColumnar: the initiator's recovery purge compacts
// the columnar accumulator and its provenance column together — exactly
// the rows untouched by the failed member survive, in arrival order, each
// still paired with its own set — and once the member is marked failed,
// its rows are dropped on arrival the same way.
func TestShipConsumerPurgeColumnar(t *testing.T) {
	const members = 4
	ex := &executor{opts: Options{Provenance: true}, failed: NewProv(members)}
	cons := newShipConsumer(ex)
	sets := []Prov{
		ProvOf(members, 0), ProvOf(members, 1), ProvOf(members, 0, 2),
		ProvOf(members, 3), ProvOf(members, 1, 2),
	}
	var wantK []int64
	var wantProv []string
	k := 0
	ship := func(n int) {
		b := &tuple.Batch{}
		b.ResetTypes([]tuple.Type{tuple.Int64, tuple.String})
		provs := make([]Prov, 0, n)
		for i := 0; i < n; i++ {
			p := sets[k%len(sets)]
			if err := b.AppendRow(tuple.Row{tuple.I(int64(k)), tuple.S(fmt.Sprint("v", k))}); err != nil {
				t.Fatal(err)
			}
			provs = append(provs, p)
			if !p.Has(2) {
				wantK = append(wantK, int64(k))
				wantProv = append(wantProv, p.Key())
			}
			k++
		}
		cons.receiveCols("n1", b, provs)
	}
	// Shipments of mixed sets, sized to cross bitset word boundaries.
	for _, n := range []int{70, 1, 130} {
		ship(n)
	}
	cons.purge(ProvOf(members, 2))
	// Member 2 is now failed: a later shipment's tainted rows never land.
	ex.failed.Set(2)
	ship(67)

	got, err := cons.seal()
	if err != nil {
		t.Fatal(err)
	}
	if got.N != len(wantK) || len(cons.prov) != got.N {
		t.Fatalf("kept %d rows with %d provenance sets, want %d", got.N, len(cons.prov), len(wantK))
	}
	for i := 0; i < got.N; i++ {
		if got.Cols[0].I64[i] != wantK[i] || got.Cols[1].Str[i] != fmt.Sprint("v", wantK[i]) {
			t.Fatalf("row %d = (%d, %s), want k=%d", i, got.Cols[0].I64[i], got.Cols[1].Str[i], wantK[i])
		}
		if cons.prov[i].Key() != wantProv[i] {
			t.Fatalf("row %d (k=%d): provenance not aligned with its row", i, wantK[i])
		}
	}
}

// TestShipProducerFailureReachesInitiator: output the ship cannot carry —
// a top-K fragment whose rows change shape (its run could no longer be
// sorted as one), or a row with an invalid value — fails the query at the
// initiator instead of leaving a gap or an unsorted run in the answer.
func TestShipProducerFailureReachesInitiator(t *testing.T) {
	h := newHarness(t, 1)
	for _, tc := range []struct {
		name string
		mode shipMode
		rows []tuple.Row
		want string
	}{
		{"top-K shape change", shipTopK, []tuple.Row{{tuple.I(1)}, {tuple.S("a")}}, "changed shape"},
		{"invalid value", shipCollect, []tuple.Row{{tuple.I(1)}, {tuple.Value{}}}, "invalid value"},
	} {
		ex := &executor{eng: h.engines[0], mode: tc.mode}
		ex.initiator = ex.self()
		ex.shipCons = newShipConsumer(ex)
		s := &shipProducer{ex: ex, pending: &tuple.Batch{}}
		for _, r := range tc.rows {
			s.push([]Tup{{Row: r}})
		}
		select {
		case err := <-ex.shipCons.failed:
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s: query failed with %v, want %q", tc.name, err, tc.want)
			}
		default:
			t.Errorf("%s: the initiator was not told of the failure", tc.name)
		}
	}
}

// TestShipFailureBlockFailsQuery: a remote fragment's failure report
// arrives as a ship block; decoding it fails the query with its message.
func TestShipFailureBlockFailsQuery(t *testing.T) {
	cons := newShipConsumer(&executor{})
	block := appendFailedHead(nil, 0, errors.New("boom"))
	if err := cons.receiveWire("n1", block); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("receiveWire = %v, want the fragment's error", err)
	}
	select {
	case err := <-cons.failed:
		if !strings.Contains(err.Error(), "boom") {
			t.Fatalf("query failed with %v", err)
		}
	default:
		t.Fatal("failure block did not fail the query")
	}
}
