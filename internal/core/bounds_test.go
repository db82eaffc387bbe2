package core

import (
	"math"
	"testing"

	"supg/internal/randx"
	"supg/internal/stats"
)

func TestBounderNormalMatchesStats(t *testing.T) {
	values := []float64{0, 1, 1, 0, 1, 0, 0, 1, 1, 1}
	b := bounder{kind: BoundNormal}
	m := stats.Summarize(values)
	wantU := stats.UB(m.Mean(), m.StdDev(), len(values), 0.05)
	wantL := stats.LB(m.Mean(), m.StdDev(), len(values), 0.05)
	if got := b.upper(values, 0.05, 1); got != wantU {
		t.Errorf("upper %v want %v", got, wantU)
	}
	if got := b.lower(values, 0.05, 1); got != wantL {
		t.Errorf("lower %v want %v", got, wantL)
	}
}

func TestBounderHoeffdingUsesRangeHint(t *testing.T) {
	values := []float64{0, 5, 5, 0}
	b := bounder{kind: BoundHoeffding}
	narrow := b.upper(values, 0.05, 5)
	wide := b.upper(values, 0.05, 50)
	if wide <= narrow {
		t.Error("larger range hint should widen the Hoeffding bound")
	}
}

func TestBounderBootstrap(t *testing.T) {
	r := randx.New(1)
	values := make([]float64, 400)
	for i := range values {
		values[i] = r.Float64()
	}
	b := bounder{kind: BoundBootstrap, rng: randx.New(2)}
	lo := b.lower(values, 0.05, 1)
	hi := b.upper(values, 0.05, 1)
	mean := stats.Mean(values)
	if !(lo <= mean && mean <= hi) {
		t.Errorf("bootstrap bounds [%v,%v] should bracket mean %v", lo, hi, mean)
	}
}

func TestBounderClopperPearsonBinary(t *testing.T) {
	values := []float64{1, 1, 0, 0, 0, 0, 0, 0, 0, 0}
	b := bounder{kind: BoundClopperPearson}
	lo := b.lower(values, 0.05, 1)
	hi := b.upper(values, 0.05, 1)
	if !(lo < 0.2 && 0.2 < hi) {
		t.Errorf("CP bounds [%v,%v] should bracket 0.2", lo, hi)
	}
	if lo < 0 || hi > 1 {
		t.Error("CP bounds must stay in [0,1]")
	}
}

func TestBounderClopperPearsonPanicsOnNonBinary(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("CP on weighted values must panic")
		}
	}()
	b := bounder{kind: BoundClopperPearson}
	b.lower([]float64{0.5, 1}, 0.05, 1)
}

func TestBounderEmptyValues(t *testing.T) {
	for _, kind := range []BoundKind{BoundNormal, BoundHoeffding, BoundBootstrap, BoundClopperPearson} {
		b := bounder{kind: kind, rng: randx.New(3)}
		if !math.IsInf(b.upper(nil, 0.05, 1), 1) {
			t.Errorf("%v: empty upper should be +Inf", kind)
		}
		if !math.IsInf(b.lower(nil, 0.05, 1), -1) {
			t.Errorf("%v: empty lower should be -Inf", kind)
		}
	}
}

func TestBoundKindStrings(t *testing.T) {
	names := map[BoundKind]string{
		BoundNormal:         "normal",
		BoundHoeffding:      "hoeffding",
		BoundBootstrap:      "bootstrap",
		BoundClopperPearson: "clopper-pearson",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("%d.String() = %q", int(k), k.String())
		}
	}
}
