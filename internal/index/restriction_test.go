package index

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"supg/internal/sampling"
)

// assertRestrictionMatches requires got to be exactly the table
// sampling.Restrict builds over ix.AppendAtLeast(tau) from the key's
// mixture weights: the same ids, the same weight and total bits, and
// the same alias tables bit for bit.
func assertRestrictionMatches(t *testing.T, ix *ScoreIndex, key MixtureKey, tau float64, got *sampling.Restricted) {
	t.Helper()
	weights, _ := ix.Mixture(key.Exponent, key.Mix)
	want := sampling.Restrict(weights, ix.AppendAtLeast(nil, tau))
	if want == nil || got == nil {
		if want != got {
			t.Fatalf("tau %v: table %v, want %v", tau, got, want)
		}
		return
	}
	if !reflect.DeepEqual(got.IDs, want.IDs) {
		t.Fatalf("tau %v: %d ids differ from AppendAtLeast's %d", tau, len(got.IDs), len(want.IDs))
	}
	for i := range want.W {
		if math.Float64bits(got.W[i]) != math.Float64bits(want.W[i]) {
			t.Fatalf("tau %v: W[%d] = %v, want %v", tau, i, got.W[i], want.W[i])
		}
	}
	if math.Float64bits(got.Total) != math.Float64bits(want.Total) {
		t.Fatalf("tau %v: Total %v, want %v", tau, got.Total, want.Total)
	}
	gp, ga := got.Alias.Tables()
	wp, wa := want.Alias.Tables()
	for i := range wp {
		if math.Float64bits(gp[i]) != math.Float64bits(wp[i]) || ga[i] != wa[i] {
			t.Fatalf("tau %v: alias entry %d = (%v, %d), want (%v, %d)", tau, i, gp[i], ga[i], wp[i], wa[i])
		}
	}
}

// heldRestriction returns ix's stage-2 table at tau after taking the
// key's mixture, as stage 1 of a precision query does, and fails t when
// the index does not hold that mixture.
func heldRestriction(t *testing.T, ix *ScoreIndex, exponent, mix, tau float64) *sampling.Restricted {
	t.Helper()
	ix.Mixture(exponent, mix)
	tab, held := ix.Restriction(exponent, mix, tau)
	if !held {
		t.Fatalf("(%v, %v) at tau %v: the index holds no mixture", exponent, mix, tau)
	}
	return tab
}

// zeroTopImage returns an external image of scores whose stored
// (0.5, 0.1) mixture gives every record scoring at least cut a zero
// weight — weights no DefensiveWeights call produces, but a mixture
// file may carry — so a restriction at cut hits the uniform fallback.
func zeroTopImage(t *testing.T, scores []float64, cut float64) External {
	t.Helper()
	ix, err := NewWithOptions(scores, Options{SegmentSize: 1000})
	if err != nil {
		t.Fatal(err)
	}
	ext := externalImage(ix)
	w := make([]float64, len(scores))
	for i, s := range scores {
		if s < cut {
			w[i] = 1
		}
	}
	a := sampling.NewAlias(w)
	ext.Mixtures = []StoredMixture{{
		Key:  MixtureKey{0.5, 0.1},
		Load: func() ([]float64, *sampling.Alias, error) { return w, a, nil },
	}}
	return ext
}

// TestRestrictionMemo checks that the stage-2 memo serves exactly the
// table Restrict builds over AppendAtLeast, and serves it again on a
// repeat without a build, across the edge cuts of D′.
func TestRestrictionMemo(t *testing.T) {
	scores := testScores(6000)
	// Each case gets a fresh index, so no earlier cut's ids count
	// against its record budget.
	fresh := func() *ScoreIndex {
		ix, err := NewWithOptions(scores, Options{SegmentSize: 1000})
		if err != nil {
			t.Fatal(err)
		}
		return ix
	}
	zeroTop := func() *ScoreIndex {
		ix, err := FromExternal(zeroTopImage(t, scores, 0.9), Options{SegmentSize: 1000})
		if err != nil {
			t.Fatal(err)
		}
		return ix
	}
	key := MixtureKey{0.5, 0.1}
	maxScore := fresh().KthHighest(0)
	cases := []struct {
		name  string
		index func() *ScoreIndex
		tau   float64
		empty bool
	}{
		// testScores repeats a score on records 1-3 of every 97.
		{name: "tie at tau", index: fresh, tau: scores[97]},
		{name: "tau above the maximum", index: fresh, tau: math.Nextafter(maxScore, 2), empty: true},
		{name: "all-zero restricted weights", index: zeroTop, tau: 0.9},
		{name: "whole column", index: fresh, tau: 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ix := c.index()
			if c.name == "tie at tau" && ix.CountAtLeast(c.tau)-ix.CountAtLeast(math.Nextafter(c.tau, 2)) < 4 {
				t.Fatal("the cut splits no tie")
			}
			builds := RestrictionBuildsTotal()
			first := heldRestriction(t, ix, key.Exponent, key.Mix, c.tau)
			if (first == nil) != c.empty {
				t.Fatalf("table %v, want empty %v", first, c.empty)
			}
			assertRestrictionMatches(t, ix, key, c.tau, first)
			if c.name == "all-zero restricted weights" && first.Total != float64(len(first.IDs)) {
				t.Fatalf("zero-mass D′: Total %v, want the uniform fallback's %d", first.Total, len(first.IDs))
			}
			if c.name == "whole column" && len(first.IDs) != ix.Len() {
				t.Fatalf("D′ holds %d of %d records", len(first.IDs), ix.Len())
			}
			wantBuilds := int64(1)
			if c.empty {
				wantBuilds = 0
			}
			if d := RestrictionBuildsTotal() - builds; d != wantBuilds {
				t.Fatalf("first call built %d tables, want %d", d, wantBuilds)
			}
			if again := heldRestriction(t, ix, key.Exponent, key.Mix, c.tau); again != first {
				t.Fatal("a repeat returned another table")
			}
			if d := RestrictionBuildsTotal() - builds; d != wantBuilds {
				t.Fatalf("a repeat built a table (%d builds)", d)
			}
		})
	}
}

// TestRestrictionMemoBounds checks what the memo keeps: at most
// maxCachedMixtures cuts per mixture, ids totalling at most Len(), no
// table (and no mixture build) for a mixture the full mixture cache
// serves uncached, and an empty memo on an appended index.
func TestRestrictionMemoBounds(t *testing.T) {
	newIndex := func() *ScoreIndex {
		ix, err := NewWithOptions(testScores(4000), Options{SegmentSize: 1000})
		if err != nil {
			t.Fatal(err)
		}
		return ix
	}
	// retained reports whether a repeat of the cut is a memo hit.
	retained := func(ix *ScoreIndex, exponent, mix, tau float64) bool {
		first := heldRestriction(t, ix, exponent, mix, tau)
		builds := RestrictionBuildsTotal()
		again := heldRestriction(t, ix, exponent, mix, tau)
		return again == first && RestrictionBuildsTotal() == builds
	}

	ix := newIndex()
	for k := 0; k < maxCachedMixtures; k++ {
		if tau := 0.99 - 0.01*float64(k); !retained(ix, 0.5, 0.1, tau) {
			t.Fatalf("cut %d (%v) was not kept", k, tau)
		}
	}
	if retained(ix, 0.5, 0.1, 0.5) {
		t.Fatalf("a cut past the %d-table bound was kept", maxCachedMixtures)
	}
	if !retained(ix, 0.5, 0.1, 0.99) {
		t.Fatal("a kept cut was lost")
	}

	ix = newIndex()
	if !retained(ix, 0.5, 0.1, 0) {
		t.Fatal("the whole-column cut was not kept")
	}
	if retained(ix, 0.5, 0.1, 0.9) {
		t.Fatal("a cut past the record budget was kept")
	}

	ix = newIndex()
	for k := 0; k < maxCachedMixtures; k++ {
		ix.Mixture(1, 0.01*float64(k))
	}
	ix.Mixture(0.5, 0.1)
	mixtures, builds := MixtureBuildsTotal(), RestrictionBuildsTotal()
	if tab, held := ix.Restriction(0.5, 0.1, 0.9); held || tab != nil {
		t.Fatal("a mixture served uncached counted as held")
	}
	if MixtureBuildsTotal() != mixtures || RestrictionBuildsTotal() != builds {
		t.Fatal("a miss built a mixture or a table")
	}

	ix = newIndex()
	first := heldRestriction(t, ix, 0.5, 0.1, 0.9)
	grown, err := ix.Append([]float64{0.95, 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if _, held := grown.Restriction(0.5, 0.1, 0.9); held {
		t.Fatal("the appended index holds its parent's mixture")
	}
	builds = RestrictionBuildsTotal()
	got := heldRestriction(t, grown, 0.5, 0.1, 0.9)
	if RestrictionBuildsTotal() != builds+1 || got == first {
		t.Fatal("the appended index served its parent's table")
	}
	assertRestrictionMatches(t, grown, MixtureKey{0.5, 0.1}, 0.9, got)
}

// TestRestrictionConcurrentFirstUse races eight first callers of one
// cut (run under -race): every caller gets the one table the memo keeps.
func TestRestrictionConcurrentFirstUse(t *testing.T) {
	ix, err := NewWithOptions(testScores(6000), Options{SegmentSize: 1000})
	if err != nil {
		t.Fatal(err)
	}
	ix.Mixture(0.5, 0.1)
	var wg sync.WaitGroup
	got := make([]*sampling.Restricted, 8)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], _ = ix.Restriction(0.5, 0.1, 0.7)
		}()
	}
	wg.Wait()
	kept := heldRestriction(t, ix, 0.5, 0.1, 0.7)
	for i, tab := range got {
		if tab != kept {
			t.Fatalf("caller %d got a table the memo does not hold", i)
		}
	}
	assertRestrictionMatches(t, ix, MixtureKey{0.5, 0.1}, 0.7, kept)
}
