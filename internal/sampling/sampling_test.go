package sampling

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"supg/internal/randx"
)

func TestUniformWithoutReplacementDistinct(t *testing.T) {
	r := randx.New(1)
	idx := UniformWithoutReplacement(r, 100, 40)
	if len(idx) != 40 {
		t.Fatalf("got %d indices, want 40", len(idx))
	}
	seen := map[int]bool{}
	for _, i := range idx {
		if i < 0 || i >= 100 {
			t.Fatalf("index %d out of range", i)
		}
		if seen[i] {
			t.Fatalf("duplicate index %d", i)
		}
		seen[i] = true
	}
}

func TestUniformWithoutReplacementExhaustive(t *testing.T) {
	r := randx.New(2)
	idx := UniformWithoutReplacement(r, 10, 25)
	if len(idx) != 10 {
		t.Fatalf("k > n should return all n, got %d", len(idx))
	}
}

func TestUniformWithoutReplacementEdge(t *testing.T) {
	r := randx.New(3)
	if UniformWithoutReplacement(r, 0, 5) != nil {
		t.Error("n=0 should return nil")
	}
	if UniformWithoutReplacement(r, 5, 0) != nil {
		t.Error("k=0 should return nil")
	}
}

func TestUniformWithoutReplacementUniformity(t *testing.T) {
	r := randx.New(4)
	counts := make([]int, 20)
	trials := 20000
	for i := 0; i < trials; i++ {
		for _, j := range UniformWithoutReplacement(r, 20, 5) {
			counts[j]++
		}
	}
	// Each index should appear with probability 5/20 = 0.25.
	want := float64(trials) * 0.25
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 0.1*want {
			t.Fatalf("index %d drawn %d times, want ~%v", i, c, want)
		}
	}
}

func TestAliasMatchesWeights(t *testing.T) {
	r := randx.New(8)
	weights := []float64{1, 2, 3, 4}
	a := NewAlias(weights)
	counts := make([]int, 4)
	trials := 100000
	for i := 0; i < trials; i++ {
		counts[a.Draw(r)]++
	}
	for i, w := range weights {
		want := w / 10 * float64(trials)
		if math.Abs(float64(counts[i])-want) > 0.05*want {
			t.Fatalf("weight %d drawn %d times, want ~%v", i, counts[i], want)
		}
	}
}

func TestAliasZeroWeightNeverDrawn(t *testing.T) {
	r := randx.New(9)
	a := NewAlias([]float64{0, 1, 0, 1})
	for i := 0; i < 10000; i++ {
		j := a.Draw(r)
		if j == 0 || j == 2 {
			t.Fatalf("zero-weight index %d drawn", j)
		}
	}
}

func TestAliasSingleElement(t *testing.T) {
	r := randx.New(10)
	a := NewAlias([]float64{3.5})
	for i := 0; i < 100; i++ {
		if a.Draw(r) != 0 {
			t.Fatal("single-element alias must always draw 0")
		}
	}
}

func TestAliasNilCases(t *testing.T) {
	if NewAlias(nil) != nil {
		t.Error("empty weights should give nil")
	}
	if NewAlias([]float64{0, 0}) != nil {
		t.Error("all-zero weights should give nil")
	}
}

func TestAliasPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative weight")
		}
	}()
	NewAlias([]float64{1, -1})
}

func TestAliasPanicsOnNaN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on NaN weight")
		}
	}()
	NewAlias([]float64{1, math.NaN()})
}

func TestAliasSkewedWeights(t *testing.T) {
	r := randx.New(11)
	// Heavily skewed: index 0 holds 99.9% of mass.
	weights := make([]float64, 100)
	weights[0] = 999
	for i := 1; i < 100; i++ {
		weights[i] = 999.0 / 99 / 1000
	}
	a := NewAlias(weights)
	hits := 0
	trials := 50000
	for i := 0; i < trials; i++ {
		if a.Draw(r) == 0 {
			hits++
		}
	}
	rate := float64(hits) / float64(trials)
	if math.Abs(rate-0.999) > 0.005 {
		t.Fatalf("skewed alias rate %v, want ~0.999", rate)
	}
}

// TestRestrict checks the restricted table's construction: only ids
// with weight are drawn, a subset with no mass falls back to uniform
// with Total = len(ids), and an empty subset has no table.
func TestRestrict(t *testing.T) {
	r := randx.New(12)
	tab := Restrict([]float64{0, 0, 5}, []int{0, 1, 2})
	ids, m := make([]int, 100), make([]float64, 100)
	tab.DrawInto(r, ids, m)
	for i, id := range ids {
		if id != 2 {
			t.Fatalf("only id 2 has weight; drew %d", id)
		}
		if want := (1.0 / 3) / (5.0 / 5.0); m[i] != want {
			t.Fatalf("m = %v, want %v", m[i], want)
		}
	}
	if Restrict([]float64{0}, nil) != nil {
		t.Error("an empty subset should give no table")
	}

	zero := Restrict([]float64{0, 0, 7, 0}, []int{0, 1, 3})
	if zero.Total != 3 || !reflect.DeepEqual(zero.W, []float64{1, 1, 1}) {
		t.Fatalf("zero-mass subset: W %v Total %v, want all ones and 3", zero.W, zero.Total)
	}
	seen := make(map[int]bool)
	zero.DrawInto(r, ids, m)
	for i, id := range ids {
		seen[id] = true
		if m[i] != 1 {
			t.Fatalf("uniform fallback m = %v, want 1", m[i])
		}
	}
	if len(seen) != 3 || seen[2] {
		t.Fatalf("uniform fallback drew %v, want exactly ids 0, 1 and 3", seen)
	}
}

// TestRestrictDrawMatchesAlias pins the restricted draw to the alias
// table over the restricted weights: the same positions from the same
// stream, mapped through IDs, with m = (1/|IDs|)/(W/Total), leaving the
// stream where DrawN leaves it.
func TestRestrictDrawMatchesAlias(t *testing.T) {
	weights := mixedWeights(randx.New(5), 2000)
	var ids []int
	for i := 3; i < len(weights); i += 7 {
		ids = append(ids, i)
	}
	tab := Restrict(weights, ids)
	total := 0.0
	for i, id := range ids {
		if tab.W[i] != weights[id] {
			t.Fatalf("W[%d] = %v, want weights[%d] = %v", i, tab.W[i], id, weights[id])
		}
		total += weights[id]
	}
	if tab.Total != total {
		t.Fatalf("Total %v, want the left-to-right sum %v", tab.Total, total)
	}
	wantProb, wantAlias := NewAlias(tab.W).Tables()
	prob, alias := tab.Alias.Tables()
	if !reflect.DeepEqual(prob, wantProb) || !reflect.DeepEqual(alias, wantAlias) {
		t.Fatal("the table's alias differs from NewAlias(W)")
	}

	ra, rb := randx.New(77), randx.New(77)
	local := NewAlias(tab.W).DrawN(ra, 500)
	got, m := make([]int, 500), make([]float64, 500)
	tab.DrawInto(rb, got, m)
	u := 1.0 / float64(len(ids))
	for i, l := range local {
		if got[i] != ids[l] {
			t.Fatalf("draw %d: id %d, want %d", i, got[i], ids[l])
		}
		if want := u / (tab.W[l] / tab.Total); math.Float64bits(m[i]) != math.Float64bits(want) {
			t.Fatalf("draw %d: m %v, want %v", i, m[i], want)
		}
	}
	if ra.Uint64() != rb.Uint64() {
		t.Fatal("DrawInto left the stream elsewhere than DrawN")
	}
}

func TestDefensiveWeightsSumToOne(t *testing.T) {
	scores := []float64{0.1, 0.5, 0.9, 0.0, 1.0}
	for _, exp := range []float64{0, 0.5, 1, 0.3} {
		for _, mix := range []float64{0, 0.1, 0.5, 1} {
			w := DefensiveWeights(scores, exp, mix, 1)
			sum := 0.0
			for _, v := range w {
				if v < 0 {
					t.Fatalf("negative weight %v", v)
				}
				sum += v
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Fatalf("exp=%v mix=%v: weights sum to %v", exp, mix, sum)
			}
		}
	}
}

func TestDefensiveWeightsMixingFloor(t *testing.T) {
	scores := []float64{0, 0, 0, 1}
	w := DefensiveWeights(scores, 0.5, 0.1, 1)
	floor := 0.1 / 4
	for i := 0; i < 3; i++ {
		if math.Abs(w[i]-floor) > 1e-12 {
			t.Fatalf("zero-score weight %v, want mixing floor %v", w[i], floor)
		}
	}
	if w[3] <= w[0] {
		t.Fatal("high score should outweigh zero scores")
	}
}

func TestDefensiveWeightsUniformWhenExponentZero(t *testing.T) {
	scores := []float64{0.1, 0.9, 0.4}
	w := DefensiveWeights(scores, 0, 0.1, 1)
	for _, v := range w {
		if math.Abs(v-1.0/3) > 1e-12 {
			t.Fatalf("exponent 0 should be uniform, got %v", w)
		}
	}
}

func TestDefensiveWeightsAllZeroScores(t *testing.T) {
	w := DefensiveWeights([]float64{0, 0}, 0.5, 0, 1)
	for _, v := range w {
		if v != 0.5 {
			t.Fatalf("all-zero scores should fall back to uniform, got %v", w)
		}
	}
}

func TestDefensiveWeightsSqrtShape(t *testing.T) {
	// With mix=0, weights should be proportional to sqrt(score).
	w := DefensiveWeights([]float64{0.25, 1.0}, 0.5, 0, 1)
	if math.Abs(w[1]/w[0]-2) > 1e-9 {
		t.Fatalf("sqrt weights ratio %v, want 2", w[1]/w[0])
	}
}

func TestDefensiveWeightsClampsMix(t *testing.T) {
	w := DefensiveWeights([]float64{0.3, 0.6}, 0.5, 2.5, 1) // mix > 1 clamps to uniform
	if math.Abs(w[0]-0.5) > 1e-12 {
		t.Fatalf("mix>1 should clamp to uniform, got %v", w)
	}
}

// referenceWeights is the defensive-weight formula as one sequential
// loop per pass.
func referenceWeights(scores []float64, exponent, mix float64) []float64 {
	w := make([]float64, len(scores))
	total := 0.0
	for i, s := range scores {
		w[i] = math.Pow(math.Max(s, 0), exponent)
		if exponent == 0.5 {
			w[i] = math.Sqrt(math.Max(s, 0))
		}
		total += w[i]
	}
	for i := range w {
		w[i] = (1-mix)*w[i]/total + mix/float64(len(w))
	}
	return w
}

// TestDefensiveWeightsBitIdenticalAcrossBlocks runs the weights kernel
// over three full blocks and a partial fourth at several worker counts:
// every branch of the transform must give the bits of one sequential
// loop at every par, because the blocks only split the per-record
// passes and the sum stays one left-to-right loop.
func TestDefensiveWeightsBitIdenticalAcrossBlocks(t *testing.T) {
	n := 3*weightBlock + 5
	r := randx.New(17)
	scores := make([]float64, n)
	for i := range scores {
		scores[i] = r.Float64()
	}
	scores[weightBlock-1], scores[weightBlock], scores[n-1] = 0, 1, 0
	for _, exp := range []float64{0, 0.5, 1, 2.3} {
		for _, mix := range []float64{0, 0.1} {
			want := referenceWeights(scores, exp, mix)
			for _, par := range []int{1, 2, 8} {
				got := DefensiveWeights(scores, exp, mix, par)
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("exp=%v mix=%v par=%d: weight %d = %v, want %v", exp, mix, par, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// Property: every defensive weight is at least mix/n.
func TestDefensiveWeightsFloorProperty(t *testing.T) {
	f := func(raw []float64, mixRaw float64) bool {
		if len(raw) == 0 {
			return true
		}
		scores := make([]float64, len(raw))
		for i, v := range raw {
			scores[i] = math.Mod(math.Abs(v), 1)
		}
		mix := math.Mod(math.Abs(mixRaw), 1)
		w := DefensiveWeights(scores, 0.5, mix, 1)
		floor := mix / float64(len(scores))
		for _, v := range w {
			if v < floor-1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: uniform sampling without replacement returns sorted-unique
// sets covering only valid indices.
func TestUniformWithoutReplacementProperty(t *testing.T) {
	r := randx.New(13)
	f := func(nRaw, kRaw uint8) bool {
		n := int(nRaw%100) + 1
		k := int(kRaw % 120)
		idx := UniformWithoutReplacement(r, n, k)
		want := k
		if want > n {
			want = n
		}
		if k == 0 {
			return idx == nil
		}
		if len(idx) != want {
			return false
		}
		seen := map[int]bool{}
		for _, i := range idx {
			if i < 0 || i >= n || seen[i] {
				return false
			}
			seen[i] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestDrawNIntoMatchesDrawN pins the interchangeability contract: for
// a fixed seed, DrawNInto fills exactly the sequence DrawN allocates,
// including over a recycled buffer holding stale values.
func TestDrawNIntoMatchesDrawN(t *testing.T) {
	a := NewAlias([]float64{0.5, 1, 0, 2.5, 0.25})
	want := a.DrawN(randx.New(31), 100)
	got := a.DrawNInto(randx.New(31), make([]int, 100))
	dirty := make([]int, 100)
	for i := range dirty {
		dirty[i] = -1
	}
	reused := a.DrawNInto(randx.New(31), dirty)
	for i := range want {
		if got[i] != want[i] || reused[i] != want[i] {
			t.Fatalf("draw %d: into=%d reused=%d, DrawN=%d", i, got[i], reused[i], want[i])
		}
	}
	if out := a.DrawNInto(randx.New(31), nil); len(out) != 0 {
		t.Fatalf("DrawNInto(nil) returned %d draws", len(out))
	}
}
