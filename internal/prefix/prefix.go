// Package prefix implements an IPv4 longest-prefix-match table, the
// lookup structure behind the paper's flow-record post-processing: "we
// associate to each flow record the egress PoP, computed from the
// destination IP address using the technique presented in [Feldmann et
// al.]". The netflow classifier uses it to map sampled flow records onto
// OD pairs.
//
// The table is a 16-8-8 multibit trie built by controlled prefix
// expansion. The root has one slot per /16. A /16 that holds a prefix
// longer than 16 bits gets a chunk of 256 entries, one per /24, and a
// /24 that holds a prefix longer than 24 bits gets a chunk of its own,
// one entry per address. A prefix is written into every slot it covers
// at the level its length falls in, and pushed down into the chunks
// that already exist below those slots. Lookup is therefore at most
// three indexed loads — root, /24 entry, host entry — with no loop.
//
// Every slot remembers the length of the prefix that set it. A prefix
// overwrites only slots whose stored length is at most its own, so the
// longest match wins in any insertion order. Lookup never reads those
// lengths; they, and the marks Len counts, are build-side metadata.
package prefix

import (
	"fmt"

	"netsamp/internal/packet"
)

// Table is a longest-prefix-match table mapping IPv4 prefixes to int32
// values (PoP or OD indices). The zero value is an empty table ready to
// use. It is not safe for concurrent mutation; lookups are read-only
// and may run concurrently after the table is built.
type Table struct {
	// root holds one ref per /16, allocated on the first Insert. A ref
	// is i<<1|1 when ents[i:i+256] is the /16's chunk, and i<<1 when
	// ents[i] is the single entry every slot a prefix of length ≤ 16
	// wins shares. The zero ref resolves to ents[0], the no-route
	// entry, so the root needs no initialisation pass.
	root *[1 << 16]uint32
	// ents holds the shared entries and the chunks; ents[1] is never
	// used, so every chunk starts at index 2 or later and entry.next
	// can tag leaves with 0 and 1. meta is its build-side twin.
	ents []entry
	meta []meta
	// short marks each inserted prefix of length l ≤ 16 at bit
	// 1<<l | addr>>(32-l), heap order over the top 16 address bits.
	short []uint64
	n     int
}

// entry is the part of a slot Lookup reads.
type entry struct {
	value int32
	// next is 0 for no route, 1 for a route to value, and otherwise
	// the index of the entry's 256-entry child chunk, which then holds
	// the routes and leaves value to the build side.
	next uint32
}

// meta is the part of a slot Lookup never reads.
type meta struct {
	// rank is the length+1 of the prefix whose value the slot holds, 0
	// for no route.
	rank uint8
	// starts has bit l-base-1 set when a prefix of length l whose range
	// starts at this entry was inserted; base is 16 in a /24 chunk and
	// 24 in a host chunk.
	starts uint8
}

// Insert adds the prefix addr/length with the given value, replacing
// any previous value for the exact same prefix. Host bits of addr past
// length are ignored. Length 0 installs a default route. It returns an
// error for invalid lengths.
func (t *Table) Insert(addr packet.Addr, length int, value int32) error {
	if length < 0 || length > 32 {
		return fmt.Errorf("prefix: length %d out of [0, 32]", length)
	}
	if t.root == nil {
		t.root = new([1 << 16]uint32)
		t.ents = make([]entry, 2)
		t.meta = make([]meta, 2)
	}
	a := uint32(addr) &^ (^uint32(0) >> length)
	e, rank := entry{value: value, next: 1}, uint8(length+1)
	switch {
	case length <= 16:
		if t.short == nil {
			t.short = make([]uint64, 1<<17/64)
		}
		if b := uint32(1)<<length | a>>(32-length); t.short[b/64]&(1<<(b%64)) == 0 {
			t.short[b/64] |= 1 << (b % 64)
			t.n++
		}
		leaf := t.alloc(1)
		t.ents[leaf], t.meta[leaf].rank = e, rank
		first := a >> 16
		for s := first; s < first+1<<(16-length); s++ {
			if r := t.root[s]; r&1 != 0 {
				t.fill(r>>1, 256, e, rank)
			} else if t.meta[r>>1].rank <= rank {
				t.root[s] = leaf << 1
			}
		}
	case length <= 24:
		i := t.chunk(a>>16) + a>>8&0xff
		t.start(i, length-17)
		t.fill(i, 1<<(24-length), e, rank)
	default:
		i := t.child(t.chunk(a>>16)+a>>8&0xff) + a&0xff
		t.start(i, length-25)
		t.fill(i, 1<<(32-length), e, rank)
	}
	return nil
}

// start marks a prefix's native range as starting at ents[i], counting
// it unless it is an exact re-insertion.
func (t *Table) start(i uint32, bit int) {
	if m := &t.meta[i]; m.starts&(1<<bit) == 0 {
		m.starts |= 1 << bit
		t.n++
	}
}

// fill writes the route (e, rank) into ents[i:i+n] wherever it is at
// least as long as the stored one, and pushes it down into the child
// chunks of the slots it takes. A child's ranks are never below its
// parent's, so a slot the route loses loses its whole subtree.
func (t *Table) fill(i, n uint32, e entry, rank uint8) {
	for k := i; k < i+n; k++ {
		if t.meta[k].rank > rank {
			continue
		}
		t.meta[k].rank = rank
		if c := t.ents[k].next; c > 1 {
			t.ents[k].value = e.value
			t.fill(c, 256, e, rank)
		} else {
			t.ents[k] = e
		}
	}
}

// chunk returns the first index of root slot s's chunk, creating it
// from the slot's route when it has none.
func (t *Table) chunk(s uint32) uint32 {
	r := t.root[s]
	if r&1 != 0 {
		return r >> 1
	}
	c := t.expand(r >> 1)
	t.root[s] = c<<1 | 1
	return c
}

// child returns the first index of ents[i]'s child chunk, creating it
// from the entry's route when it has none.
func (t *Table) child(i uint32) uint32 {
	if c := t.ents[i].next; c > 1 {
		return c
	}
	c := t.expand(i)
	t.ents[i].next = c
	return c
}

// expand allocates a chunk holding 256 copies of the route at ents[i].
func (t *Table) expand(i uint32) uint32 {
	c := t.alloc(256)
	e, rank := t.ents[i], t.meta[i].rank
	for k := c; k < c+256; k++ {
		t.ents[k], t.meta[k].rank = e, rank
	}
	return c
}

// alloc appends n zero slots and returns the index of the first.
func (t *Table) alloc(n int) uint32 {
	i := uint32(len(t.ents))
	t.ents = append(t.ents, make([]entry, n)...)
	t.meta = append(t.meta, make([]meta, n)...)
	return i
}

// MustInsert is Insert that panics on error (for static tables).
func (t *Table) MustInsert(addr packet.Addr, length int, value int32) {
	if err := t.Insert(addr, length, value); err != nil {
		panic(err)
	}
}

// Lookup returns the value of the longest matching prefix for addr and
// whether any prefix matched.
//
//netsamp:noalloc
func (t *Table) Lookup(addr packet.Addr) (int32, bool) {
	if t.root == nil {
		return 0, false
	}
	a := uint32(addr)
	r := t.root[a>>16]
	e := t.ents[r>>1+a>>8&0xff&-(r&1)]
	if e.next > 1 {
		e = t.ents[e.next+a&0xff]
	}
	return e.value, e.next != 0
}

// Len returns the number of distinct installed prefixes.
func (t *Table) Len() int { return t.n }
