package prefix

import (
	"sync"
	"testing"

	"netsamp/internal/packet"
	"netsamp/internal/rng"
)

func TestLongestMatchWins(t *testing.T) {
	var tbl Table
	tbl.MustInsert(packet.AddrFrom4(10, 0, 0, 0), 8, 1)
	tbl.MustInsert(packet.AddrFrom4(10, 1, 0, 0), 16, 2)
	tbl.MustInsert(packet.AddrFrom4(10, 1, 2, 0), 24, 3)

	cases := []struct {
		addr packet.Addr
		want int32
		ok   bool
	}{
		{packet.AddrFrom4(10, 9, 9, 9), 1, true},
		{packet.AddrFrom4(10, 1, 9, 9), 2, true},
		{packet.AddrFrom4(10, 1, 2, 9), 3, true},
		{packet.AddrFrom4(11, 0, 0, 1), 0, false},
	}
	for _, c := range cases {
		got, ok := tbl.Lookup(c.addr)
		if ok != c.ok || (ok && got != c.want) {
			t.Fatalf("Lookup(%v) = %v,%v want %v,%v", c.addr, got, ok, c.want, c.ok)
		}
	}
	if tbl.Len() != 3 {
		t.Fatalf("Len = %d", tbl.Len())
	}
}

func TestDefaultRoute(t *testing.T) {
	var tbl Table
	tbl.MustInsert(0, 0, 42)
	if got, ok := tbl.Lookup(packet.AddrFrom4(8, 8, 8, 8)); !ok || got != 42 {
		t.Fatalf("default route lookup = %v,%v", got, ok)
	}
}

func TestHostRoute(t *testing.T) {
	var tbl Table
	host := packet.AddrFrom4(192, 0, 2, 1)
	tbl.MustInsert(host, 32, 7)
	if got, ok := tbl.Lookup(host); !ok || got != 7 {
		t.Fatalf("host route = %v,%v", got, ok)
	}
	if _, ok := tbl.Lookup(host + 1); ok {
		t.Fatal("host route matched neighbour")
	}
}

func TestReplaceExact(t *testing.T) {
	var tbl Table
	tbl.MustInsert(packet.AddrFrom4(10, 0, 0, 0), 8, 1)
	tbl.MustInsert(packet.AddrFrom4(10, 0, 0, 0), 8, 9)
	if tbl.Len() != 1 {
		t.Fatalf("Len = %d after replace", tbl.Len())
	}
	if got, _ := tbl.Lookup(packet.AddrFrom4(10, 5, 5, 5)); got != 9 {
		t.Fatalf("replaced value = %v", got)
	}
}

func TestInsertValidation(t *testing.T) {
	var tbl Table
	if err := tbl.Insert(0, 33, 1); err == nil {
		t.Fatal("length 33 accepted")
	}
	if err := tbl.Insert(0, -1, 1); err == nil {
		t.Fatal("negative length accepted")
	}
}

func TestEmptyTable(t *testing.T) {
	var tbl Table
	if _, ok := tbl.Lookup(packet.AddrFrom4(1, 2, 3, 4)); ok {
		t.Fatal("empty table matched")
	}
}

// op is one Insert of an oracle comparison. addr may carry host bits.
type op struct {
	addr   packet.Addr
	length int
	value  int32
}

// strideLengths are the prefix lengths on and next to every stride
// boundary of the 16-8-8 layout.
var strideLengths = [...]int{0, 1, 8, 15, 16, 17, 23, 24, 25, 31, 32}

// netmask is the oracle's own mask for a prefix length.
func netmask(length int) uint32 {
	if length == 0 {
		return 0
	}
	return ^uint32(0) << (32 - length)
}

// bruteForce is the oracle: the distinct inserted prefixes in a list,
// searched linearly for the longest match. It shares no code with
// Table.
type bruteForce []op

func (b *bruteForce) insert(o op) {
	o.addr = packet.Addr(uint32(o.addr) & netmask(o.length))
	for i := range *b {
		if (*b)[i].addr == o.addr && (*b)[i].length == o.length {
			(*b)[i].value = o.value
			return
		}
	}
	*b = append(*b, o)
}

func (b bruteForce) lookup(addr packet.Addr) (int32, bool) {
	bestLen, bestVal := -1, int32(0)
	for _, p := range b {
		if uint32(addr)&netmask(p.length) == uint32(p.addr) && p.length > bestLen {
			bestLen, bestVal = p.length, p.value
		}
	}
	return bestVal, bestLen >= 0
}

// opBytes is the size of one op in a fuzz input.
const opBytes = 6

// decodeOps turns fuzz bytes into inserts, opBytes per op: a selector,
// four address bytes and a value byte (sign-extended, so half the
// values are negative). A selector ≥ 0xf0 re-inserts an earlier prefix
// (chosen by the first address byte) with the new value; otherwise its
// value mod 48 is a length when ≤ 32 and picks one of strideLengths
// when above. Addresses keep whatever host bits the bytes give them.
func decodeOps(data []byte) []op {
	var ops []op
	for ; len(data) >= opBytes; data = data[opBytes:] {
		v := int32(int8(data[5]))
		if data[0] >= 0xf0 && len(ops) > 0 {
			o := ops[int(data[1])%len(ops)]
			o.value = v
			ops = append(ops, o)
			continue
		}
		length := int(data[0]) % 48
		if length > 32 {
			length = strideLengths[(length-33)%len(strideLengths)]
		}
		addr := packet.AddrFrom4(data[1], data[2], data[3], data[4])
		ops = append(ops, op{addr, length, v})
	}
	return ops
}

// encodeOps is decodeOps' inverse for ops with values in int8: it
// turns the hand-made cases into fuzz seeds.
func encodeOps(ops ...op) []byte {
	var b []byte
	for _, o := range ops {
		a := uint32(o.addr)
		b = append(b, byte(o.length), byte(a>>24), byte(a>>16), byte(a>>8), byte(a), byte(int8(o.value)))
	}
	return b
}

// checkAgainstBruteForce inserts ops into a Table and the oracle,
// holding Len to the oracle's size after every insert, then compares
// Lookup on the range ends of every prefix, their neighbours, the
// addresses as inserted (host bits and all) and the extra addresses.
func checkAgainstBruteForce(t *testing.T, ops []op, extra []packet.Addr) {
	t.Helper()
	var tbl Table
	var ref bruteForce
	for i, o := range ops {
		if err := tbl.Insert(o.addr, o.length, o.value); err != nil {
			t.Fatalf("op %d: Insert(%v/%d): %v", i, o.addr, o.length, err)
		}
		ref.insert(o)
		if tbl.Len() != len(ref) {
			t.Fatalf("op %d: Insert(%v/%d) left Len = %d, want %d", i, o.addr, o.length, tbl.Len(), len(ref))
		}
	}
	queries := append([]packet.Addr(nil), extra...)
	for _, o := range ops {
		lo := uint32(o.addr) & netmask(o.length)
		hi := lo | ^netmask(o.length)
		queries = append(queries, o.addr, packet.Addr(lo), packet.Addr(hi), packet.Addr(lo-1), packet.Addr(hi+1))
	}
	for _, q := range queries {
		want, wantOK := ref.lookup(q)
		got, ok := tbl.Lookup(q)
		if ok != wantOK || got != want {
			t.Fatalf("after %d inserts: Lookup(%v) = %v,%v want %v,%v", len(ops), q, got, ok, want, wantOK)
		}
	}
}

// naiveExpansionCases each break a plausible shortcut of controlled
// prefix expansion; the seed corpus holds the same inserts.
var naiveExpansionCases = map[string][]op{
	// A /16 after a /24 in the same /16 must reach the chunk's other
	// entries and spare the /24's.
	"short-after-chunk": {
		{packet.AddrFrom4(10, 1, 2, 0), 24, 5},
		{packet.AddrFrom4(10, 1, 0, 0), 16, 7},
	},
	// A /8 after a /32 must reach the host chunk two levels down.
	"push-down-two-levels": {
		{packet.AddrFrom4(10, 1, 2, 3), 32, 1},
		{packet.AddrFrom4(10, 1, 2, 0), 24, -2},
		{packet.AddrFrom4(10, 0, 0, 0), 8, 3},
	},
	// A /20 given with host bits set must cover its own sixteen /24s.
	"unmasked-20": {
		{packet.AddrFrom4(10, 1, 0x37, 0x99), 20, 4},
		{packet.AddrFrom4(10, 1, 0x30, 0), 23, -5},
	},
	// A /8 shadowed by two /9s and then re-inserted is still one prefix.
	"shadowed-reinsert": {
		{packet.AddrFrom4(10, 0, 0, 0), 8, 1},
		{packet.AddrFrom4(10, 0, 0, 0), 9, 2},
		{packet.AddrFrom4(10, 128, 0, 0), 9, 3},
		{packet.AddrFrom4(10, 0, 0, 0), 8, -4},
	},
	// A /24 its two /25s cover, re-inserted with a new value.
	"host-shadowed-reinsert": {
		{packet.AddrFrom4(10, 1, 2, 0), 31, 1},
		{packet.AddrFrom4(10, 1, 2, 0), 24, 2},
		{packet.AddrFrom4(10, 1, 2, 0), 25, 3},
		{packet.AddrFrom4(10, 1, 2, 128), 25, 4},
		{packet.AddrFrom4(10, 1, 2, 0), 24, -1},
	},
	// The default route under everything, given with host bits set.
	"default-last": {
		{packet.AddrFrom4(10, 1, 2, 3), 32, 1},
		{packet.AddrFrom4(10, 1, 2, 0), 17, 2},
		{packet.AddrFrom4(192, 168, 7, 7), 0, -3},
	},
}

// randomOps draws n inserts biased the way the layout breaks: lengths
// from strideLengths half the time, host bits left set, negative
// values, re-insertions of earlier prefixes, and, when shortLast, the
// longest prefixes first so shorter ones push down into their chunks.
func randomOps(r *rng.Source, n int, shortLast bool) []op {
	ops := make([]op, 0, n)
	for len(ops) < n {
		if len(ops) > 0 && r.Intn(8) == 0 {
			o := ops[r.Intn(len(ops))]
			o.value = int32(r.Uint64())
			ops = append(ops, o)
			continue
		}
		length := r.Intn(33)
		if r.Intn(2) == 0 {
			length = strideLengths[r.Intn(len(strideLengths))]
		}
		// Keep addresses in a few /8s so prefixes overlap.
		addr := packet.Addr(uint32(r.Uint64())&0x03ffffff | 10<<24)
		ops = append(ops, op{addr, length, int32(r.Uint64())})
	}
	if shortLast {
		// Insertion sort keeps the draw order among equal lengths.
		for i := 1; i < len(ops); i++ {
			for j := i; j > 0 && ops[j].length > ops[j-1].length; j-- {
				ops[j], ops[j-1] = ops[j-1], ops[j]
			}
		}
	}
	return ops
}

// TestLookupAgainstBruteForce cross-checks the table against a linear
// scan: uniform random prefix sets, the hand-made cases behind the seed
// corpus, and random sets biased toward the stride boundaries.
func TestLookupAgainstBruteForce(t *testing.T) {
	r := rng.New(91)
	randomAddrs := func(n int) []packet.Addr {
		out := make([]packet.Addr, n)
		for i := range out {
			out[i] = packet.Addr(r.Uint64())
		}
		return out
	}
	for trial := 0; trial < 20; trial++ {
		ops := make([]op, 1+r.Intn(40))
		for i := range ops {
			ops[i] = op{packet.Addr(r.Uint64()), r.Intn(33), int32(i)}
		}
		checkAgainstBruteForce(t, ops, randomAddrs(200))
	}
	for name, ops := range naiveExpansionCases {
		t.Run(name, func(t *testing.T) { checkAgainstBruteForce(t, ops, nil) })
	}
	for trial := 0; trial < 200; trial++ {
		checkAgainstBruteForce(t, randomOps(r, 1+r.Intn(60), trial%2 == 0), randomAddrs(50))
	}
}

// FuzzLookupAgainstBruteForce runs the oracle comparison on inserts
// decoded from the fuzz input (see decodeOps).
func FuzzLookupAgainstBruteForce(f *testing.F) {
	for _, ops := range naiveExpansionCases {
		f.Add(encodeOps(ops...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 64*opBytes {
			data = data[:64*opBytes]
		}
		checkAgainstBruteForce(t, decodeOps(data), nil)
	})
}

// TestLookupDoesNotAllocate pins Lookup's //netsamp:noalloc contract at
// run time on every level of the layout.
func TestLookupDoesNotAllocate(t *testing.T) {
	var tbl Table
	tbl.MustInsert(packet.AddrFrom4(10, 0, 0, 0), 8, 1)
	tbl.MustInsert(packet.AddrFrom4(10, 1, 2, 0), 24, 2)
	tbl.MustInsert(packet.AddrFrom4(10, 1, 2, 3), 32, 3)
	addrs := []packet.Addr{
		packet.AddrFrom4(10, 9, 9, 9), packet.AddrFrom4(10, 1, 2, 9),
		packet.AddrFrom4(10, 1, 2, 3), packet.AddrFrom4(11, 0, 0, 0),
	}
	var sum int32
	allocs := testing.AllocsPerRun(1000, func() {
		for _, a := range addrs {
			v, _ := tbl.Lookup(a)
			sum += v
		}
	})
	if allocs != 0 {
		t.Fatalf("Lookup allocates %.1f times per run", allocs)
	}
	if sum == 0 {
		t.Fatal("lookups found nothing")
	}
}

// TestConcurrentLookups runs lookups on one built table from four
// goroutines (under -race this checks that Lookup only reads) and holds
// each to the serial answers.
func TestConcurrentLookups(t *testing.T) {
	r := rng.New(5)
	var tbl Table
	for _, o := range randomOps(r, 2000, false) {
		tbl.MustInsert(o.addr, o.length, o.value)
	}
	addrs := make([]packet.Addr, 4096)
	for i := range addrs {
		addrs[i] = packet.Addr(uint32(r.Uint64())&0x03ffffff | 10<<24)
	}
	type result struct {
		v  int32
		ok bool
	}
	serial := make([]result, len(addrs))
	for i, a := range addrs {
		serial[i].v, serial[i].ok = tbl.Lookup(a)
	}
	var wg sync.WaitGroup
	mismatches := make([]int, 4)
	for g := range mismatches {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range addrs {
				a := addrs[(i+g*1024)%len(addrs)]
				if v, ok := tbl.Lookup(a); (result{v, ok}) != serial[(i+g*1024)%len(addrs)] {
					mismatches[g]++
				}
			}
		}(g)
	}
	wg.Wait()
	for g, n := range mismatches {
		if n != 0 {
			t.Fatalf("goroutine %d: %d lookups differ from the serial answers", g, n)
		}
	}
}

// pairTable is a production-shape table: n consecutive /24s
// 10.(k>>8).(k&255).0/24 mapping to k, the layout the interval-pipeline
// benchmark addresses its OD pairs with. It returns the table and 1024
// addresses inside those prefixes.
func pairTable(n int) (*Table, []packet.Addr) {
	tbl := &Table{}
	for k := 0; k < n; k++ {
		tbl.MustInsert(packet.Addr(10<<24|uint32(k)<<8), 24, int32(k))
	}
	r := rng.New(2)
	addrs := make([]packet.Addr, 1024)
	for i := range addrs {
		addrs[i] = packet.Addr(10<<24 | uint32(r.Intn(n))<<8 | uint32(r.Intn(256)))
	}
	return tbl, addrs
}

// lookupSink keeps the benchmarked lookups from being optimised away.
var lookupSink int32

func benchmarkLookups(b *testing.B, tbl *Table, addrs []packet.Addr) {
	b.ReportAllocs()
	b.ResetTimer()
	var sum int32
	for i := 0; i < b.N; i++ {
		v, _ := tbl.Lookup(addrs[i&1023])
		sum += v
	}
	lookupSink = sum
}

// BenchmarkLookup times one lookup on a random mix of 1000 prefixes of
// length 8–32, on GEANT's 20 OD-pair /24s and on the 21 170 /24s of the
// 800-link ISP instance.
func BenchmarkLookup(b *testing.B) {
	b.Run("random", func(b *testing.B) {
		var tbl Table
		r := rng.New(1)
		for i := 0; i < 1000; i++ {
			length := 8 + r.Intn(25)
			tbl.MustInsert(packet.Addr(r.Uint64()), length, int32(i))
		}
		addrs := make([]packet.Addr, 1024)
		for i := range addrs {
			addrs[i] = packet.Addr(r.Uint64())
		}
		benchmarkLookups(b, &tbl, addrs)
	})
	b.Run("geant-20x24", func(b *testing.B) {
		tbl, addrs := pairTable(20)
		benchmarkLookups(b, tbl, addrs)
	})
	b.Run("isp-21170x24", func(b *testing.B) {
		tbl, addrs := pairTable(21170)
		benchmarkLookups(b, tbl, addrs)
	})
}
