package sampling

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"supg/internal/randx"
)

// newAliasReference is the textbook two-stack Vose build NewAlias
// replaced: five n-length arrays (prob, alias, scaled, small, large).
// It is kept as the independent reference the in-place build must
// reproduce bit for bit.
func newAliasReference(weights []float64) ([]float64, []int) {
	n := len(weights)
	total := 0.0
	for _, w := range weights {
		total += w
	}
	if n == 0 || total <= 0 {
		return nil, nil
	}
	prob := make([]float64, n)
	alias := make([]int, n)
	scaled := make([]float64, n)
	small := make([]int, 0, n)
	large := make([]int, 0, n)
	for i, w := range weights {
		scaled[i] = w / total * float64(n)
		if scaled[i] < 1 {
			small = append(small, i)
		} else {
			large = append(large, i)
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		large = large[:len(large)-1]
		prob[s] = scaled[s]
		alias[s] = l
		scaled[l] = scaled[l] + scaled[s] - 1
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	for _, i := range large {
		prob[i] = 1
		alias[i] = i
	}
	for _, i := range small {
		prob[i] = 1
		alias[i] = i
	}
	return prob, alias
}

// aliasCases are weight vectors that exercise every branch of the
// build: skewed and uniform mass, ties, zeros, one element, sizes that
// leave float residue on either stack.
func aliasCases() map[string][]float64 {
	r := randx.New(42)
	cases := map[string][]float64{
		"single":  {3.5},
		"two":     {1, 3},
		"uniform": make([]float64, 1000),
		"ties":    make([]float64, 1000),
		"zeros":   make([]float64, 1000),
		"spike":   make([]float64, 1000),
	}
	for i := range cases["uniform"] {
		cases["uniform"][i] = 1
		cases["ties"][i] = float64(1 + i%3)
		if i%7 == 0 {
			cases["zeros"][i] = r.Float64()
		}
	}
	cases["spike"][999] = 1e9
	cases["spike"][0] = 1e-9
	for _, n := range []int{1, 7, 1000, 1 << 16, 1<<20 + 3} {
		cases["skewed/"+strconv.Itoa(n)] = skewedWeights(r, n)
	}
	return cases
}

// skewedWeights is an unnormalized defensive mixture over a heavily
// skewed column: sqrt(u^40), which puts almost all mass near zero,
// mixed 90/10 with the uniform distribution — both Vose stacks stay
// busy for the whole build.
func skewedWeights(r *randx.Rand, n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 0.9*math.Sqrt(math.Pow(r.Float64(), 40))/float64(n) + 0.1/float64(n)
	}
	return w
}

func TestAliasInPlaceMatchesReference(t *testing.T) {
	for name, w := range aliasCases() {
		wantProb, wantAlias := newAliasReference(w)
		a := NewAlias(w)
		prob, alias := a.Tables()
		if len(prob) != len(wantProb) || len(alias) != len(wantAlias) {
			t.Fatalf("%s: %d/%d entries, reference %d/%d", name, len(prob), len(alias), len(wantProb), len(wantAlias))
		}
		for i := range prob {
			if math.Float64bits(prob[i]) != math.Float64bits(wantProb[i]) || int(alias[i]) != wantAlias[i] {
				t.Fatalf("%s: entry %d is (%v, %d), reference (%v, %d)",
					name, i, prob[i], alias[i], wantProb[i], wantAlias[i])
			}
		}
	}
}

func TestAliasAllZeroMatchesReference(t *testing.T) {
	w := make([]float64, 16)
	if p, _ := newAliasReference(w); p != nil {
		t.Fatal("reference built a table over zero mass")
	}
	if NewAlias(w) != nil {
		t.Fatal("all-zero weights built a table")
	}
}

func TestAliasDrawSequenceMatchesReference(t *testing.T) {
	for _, n := range []int{1, 7, 1000, 1 << 20} {
		w := skewedWeights(randx.New(uint64(n)+1), n)
		prob, alias := newAliasReference(w)
		a := NewAlias(w)
		r1, r2 := randx.New(uint64(n)), randx.New(uint64(n))
		for k := 0; k < 200_000; k++ {
			i := r2.IntN(len(prob))
			want := alias[i]
			if r2.Float64() < prob[i] {
				want = i
			}
			if got := a.Draw(r1); got != want {
				t.Fatalf("n=%d: draw %d = %d, reference %d", n, k, got, want)
			}
		}
	}
}

func TestAliasFromTablesRoundTrip(t *testing.T) {
	a := NewAlias(skewedWeights(randx.New(3), 1000))
	prob, alias := a.Tables()
	b, err := AliasFromTables(prob, alias)
	if err != nil {
		t.Fatal(err)
	}
	r1, r2 := randx.New(5), randx.New(5)
	for k := 0; k < 10_000; k++ {
		if x, y := a.Draw(r1), b.Draw(r2); x != y {
			t.Fatalf("draw %d: %d from the rebuilt table, %d from the original", k, y, x)
		}
	}
}

func TestAliasFromTablesRejectsOutOfBounds(t *testing.T) {
	good := func() ([]float64, []int32) { return []float64{0.5, 1, 1}, []int32{1, 1, 2} }
	cases := []struct {
		name   string
		mutate func(p []float64, a []int32) ([]float64, []int32)
		want   string
	}{
		{"empty", func([]float64, []int32) ([]float64, []int32) { return nil, nil }, "tables of 0"},
		{"length mismatch", func(p []float64, a []int32) ([]float64, []int32) { return p, a[:2] }, "3 probabilities and 2"},
		{"alias too large", func(p []float64, a []int32) ([]float64, []int32) { a[0] = 3; return p, a }, "alias 3"},
		{"alias negative", func(p []float64, a []int32) ([]float64, []int32) { a[2] = -1; return p, a }, "alias -1"},
		{"prob above one", func(p []float64, a []int32) ([]float64, []int32) { p[1] = 1.5; return p, a }, "probability 1.5"},
		{"prob negative", func(p []float64, a []int32) ([]float64, []int32) { p[0] = -0.1; return p, a }, "probability -0.1"},
		{"prob NaN", func(p []float64, a []int32) ([]float64, []int32) { p[0] = math.NaN(); return p, a }, "probability NaN"},
	}
	for _, c := range cases {
		p, a := c.mutate(good())
		_, err := AliasFromTables(p, a)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: err %v, want one mentioning %q", c.name, err, c.want)
		}
	}
	if _, err := AliasFromTables(good()); err != nil {
		t.Fatalf("valid tables rejected: %v", err)
	}
}

// BenchmarkNewAlias prices the alias build at the paper's table size,
// the step a mixture rebuild spends most of its time in, against the
// two-stack reference build.
func BenchmarkNewAlias(b *testing.B) {
	w := skewedWeights(randx.New(1), 1_000_000)
	b.Run("in-place", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if NewAlias(w) == nil {
				b.Fatal("nil table")
			}
		}
	})
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if p, _ := newAliasReference(w); p == nil {
				b.Fatal("nil table")
			}
		}
	})
}
