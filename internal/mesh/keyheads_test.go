package mesh

import (
	"math/rand"
	"slices"
	"testing"
)

// Distinct keys forced into one probe sequence of the halo match's head
// table must each keep a chain of their own: a probe compares the full
// key, never just the slot, so two different points never pair.
func TestKeyHeadsNeverPairDistinctKeys(t *testing.T) {
	const n = 8 // keys the table is sized for: 16 slots
	heads := newKeyHeads(n)
	if len(heads.heads) != 16 {
		t.Fatalf("newKeyHeads(%d) made %d slots, want 16", n, len(heads.heads))
	}
	// Keys that differ in one word only, whose home slot is slot 5.
	rng := rand.New(rand.NewSource(50))
	var keys []PointKey
	for len(keys) < n {
		k := PointKey{0x40d0000000000000, rng.Uint64(), 0x3ff0000000000000}
		if keyMix(k)>>heads.shift == 5 && !slices.Contains(keys, k) {
			keys = append(keys, k)
		}
	}
	var owners []keyOwner
	for i, k := range keys {
		at := heads.slot(k, owners)
		if *at != -1 {
			t.Fatalf("key %d of one probe sequence met chain %d (key %v) instead of an empty slot", i, *at, owners[*at].key)
		}
		*at = int32(len(owners))
		owners = append(owners, keyOwner{key: k, rank: int32(i), next: -1})
	}
	for i, k := range keys {
		at := heads.slot(k, owners)
		if *at != int32(i) {
			t.Errorf("key %d finds chain %d", i, *at)
		}
		// Linear probing from the shared home slot: key i sits i slots on.
		if want := &heads.heads[(5+i)%len(heads.heads)]; at != want {
			t.Errorf("key %d is not %d slots past its home slot", i, i)
		}
	}
	// A key that shares the home slot but was never inserted finds an
	// empty slot past the whole sequence.
	for {
		k := PointKey{0x40d0000000000000, rng.Uint64(), 0x3ff0000000000000}
		if keyMix(k)>>heads.shift != 5 || slices.Contains(keys, k) {
			continue
		}
		if at := heads.slot(k, owners); *at != -1 {
			t.Errorf("an absent key found chain %d", *at)
		}
		break
	}
	if got := newKeyHeads(0); len(got.heads) == 0 {
		t.Error("newKeyHeads(0) made no slot")
	}
}

// compareKeys orders keys as slices.Compare orders their words.
func TestCompareKeysIsLexicographic(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	word := func() uint64 { return rng.Uint64() >> 62 } // ties on every word
	for range 2000 {
		x := PointKey{word(), word(), word()}
		y := PointKey{word(), word(), word()}
		if got, want := compareKeys(&x, &y), slices.Compare(x[:], y[:]); got != want {
			t.Fatalf("compareKeys(%v, %v) = %d, slices.Compare %d", x, y, got, want)
		}
	}
}
