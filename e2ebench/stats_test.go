package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"supg/internal/dataset"
)

// burnEnv makes the test binary, re-executed as a child, burn CPU and
// exit: the child-CPU test's workload.
const burnEnv = "E2EBENCH_TEST_BURN_MS"

func TestMain(m *testing.M) {
	if v := os.Getenv(burnEnv); v != "" {
		d, err := time.ParseDuration(v + "ms")
		if err != nil {
			os.Exit(2)
		}
		burn(d)
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// burn spins on the CPU for at least d of this process's CPU time.
func burn(d time.Duration) {
	start := selfCPU()
	x := uint64(1)
	for selfCPU()-start < d {
		for i := 0; i < 100_000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	probeSink += x
}

func TestPercentileRefusesThinTail(t *testing.T) {
	cases := []struct {
		n      int
		p      float64
		refuse bool
	}{
		{19, 50, true}, {20, 50, false},
		{99, 90, true}, {100, 90, false},
		{999, 99, true}, {1000, 99, false},
	}
	for _, c := range cases {
		xs := make([]float64, c.n)
		for i := range xs {
			xs[i] = float64(c.n - i) // reversed: percentile must sort
		}
		_, err := percentile(xs, c.p)
		if (err != nil) != c.refuse {
			t.Errorf("p%g of %d samples: err=%v, want refusal=%v", c.p, c.n, err, c.refuse)
		}
	}
	if _, err := percentile(make([]float64, 500), 100); err == nil {
		t.Error("p100 accepted")
	}
}

func TestPercentileInterpolates(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1
	}
	for _, c := range []struct{ p, want float64 }{{50, 50.5}, {90, 90.1}} {
		got, err := percentile(xs, c.p)
		if err != nil || math.Abs(got-c.want) > 1e-9 {
			t.Errorf("p%g = %v, %v; want %v", c.p, got, err, c.want)
		}
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestProcParsers(t *testing.T) {
	status := "Name:\te2ebench\nVmPeak:\t  900000 kB\nVmHWM:\t  123456 kB\nVmRSS:\t   1000 kB\n"
	if v, err := procField(strings.NewReader(status), "VmHWM"); err != nil || v != 123456 {
		t.Errorf("VmHWM = %d, %v; want 123456", v, err)
	}
	io := "rchar: 10\nwchar: 20\nsyscr: 1\nsyscw: 2\nread_bytes: 4096\nwrite_bytes: 8192\ncancelled_write_bytes: 0\n"
	if v, err := procField(strings.NewReader(io), "write_bytes"); err != nil || v != 8192 {
		t.Errorf("write_bytes = %d, %v; want 8192 (not cancelled_write_bytes)", v, err)
	}
	if _, err := procField(strings.NewReader(io), "VmHWM"); err == nil {
		t.Error("missing key parsed")
	}
	if _, err := procField(strings.NewReader("VmHWM:\tlots kB\n"), "VmHWM"); err == nil {
		t.Error("non-numeric value parsed")
	}
	// The live files parse, and VmHWM is in bytes.
	hwm, err := vmHWMBytes("self")
	if err != nil || hwm < 1<<20 {
		t.Errorf("own VmHWM = %d, %v", hwm, err)
	}
	if _, err := writeBytes("self"); err != nil && !errors.Is(err, os.ErrPermission) {
		t.Errorf("own write_bytes: %v", err)
	}
}

func TestCPUDeltas(t *testing.T) {
	before := selfCPU()
	burn(50 * time.Millisecond)
	if d := selfCPU() - before; d < 50*time.Millisecond || d > 5*time.Second {
		t.Errorf("own CPU delta = %v after burning 50ms", d)
	}

	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), burnEnv+"=120")
	start := time.Now()
	if err := cmd.Run(); err != nil {
		t.Fatalf("child: %v", err)
	}
	wall := time.Since(start)
	got := childCPU(cmd.ProcessState)
	if got < 120*time.Millisecond || got > wall*time.Duration(2) {
		t.Errorf("child CPU = %v for a 120ms burn in %v wall", got, wall)
	}
	if childCPU(nil) != 0 {
		t.Error("CPU of a child that never ran is not 0")
	}
}

func TestStoredBytes(t *testing.T) {
	dir := t.TempDir()
	files := map[string]int{"MANIFEST": 100, "labels.wal": 2048, "seg/0001.seg": 4096, "seg/deep/x": 7}
	want := 0
	for name, n := range files {
		p := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, make([]byte, n), 0o644); err != nil {
			t.Fatal(err)
		}
		want += n
	}
	if err := os.Symlink(filepath.Join(dir, "labels.wal"), filepath.Join(dir, "link")); err != nil {
		t.Fatal(err)
	}
	got, err := dirBytes(dir)
	if err != nil || got != int64(want) {
		t.Errorf("dirBytes = %d, %v; want %d (links not followed)", got, err, want)
	}
	for _, n := range []int{1, 7, 8, 9, 1_000_000} {
		if binaryBytes(n) != dataset.BinarySize(n) {
			t.Errorf("binaryBytes(%d) = %d, dataset.BinarySize = %d", n, binaryBytes(n), dataset.BinarySize(n))
		}
	}
	if r := storedPerUserByte(2*binaryBytes(1000), 1000); r != 2 {
		t.Errorf("stored ratio = %v, want 2", r)
	}
}

func TestFailureCounting(t *testing.T) {
	tb := testTable(1000)
	q := newText(0, tb, srcProxy, kindRT, 100, 90, 0)
	good := correctAnswer(tb, q, 0.5, 100)
	bad := good
	bad.AchievedRecall += 0.01

	ops := []*opRecord{
		{opSpec: opSpec{key: 0, text: q, batch: -1}, k: 0, n: 1000, ans: good},
		{opSpec: opSpec{key: 0, text: q, batch: -1}, k: 1, n: 1000, err: fmt.Errorf("status 503")},
		{opSpec: opSpec{key: 0, text: q, batch: -1}, k: 2, n: 1000, ans: bad},
		{opSpec: opSpec{key: 0, text: q, batch: -1}, k: 3, n: 1000, ans: good},
	}
	for i, o := range ops {
		o.lat = time.Duration(i+1) * time.Millisecond
	}
	b := &bench{name: "warm-select", w: &warmSelect{}}
	s, err := b.summarize(&window{ops: ops, wall: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if s.ops != 4 || s.failed != 2 {
		t.Errorf("ops=%d failed=%d, want 4 and 2", s.ops, s.failed)
	}
	if f := failFrac(s.ops, s.failed); f != 0.5 {
		t.Errorf("fail_frac = %v, want 0.5", f)
	}
	if failFrac(0, 0) != 0 {
		t.Error("fail_frac of nothing attempted is not 0")
	}
	if s.qps != 4 {
		t.Errorf("qps = %v, want 4 ops in 1s", s.qps)
	}
}
