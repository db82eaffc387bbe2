// Package benchtool holds the pieces of the benchmark-trajectory
// harness shared between test files and the bench-gate command: the
// SUPG_BENCH_N scale override, the parser for `go test -bench
// -benchmem` output, and the baseline comparison the CI gate runs.
//
// The harness exists so hot-path regressions are caught mechanically
// rather than anecdotally (ROADMAP item 5): `make bench-json` records
// full-scale and smoke-scale runs into BENCH_hotpath.json, committed
// per PR, and CI re-runs the smoke benchmarks and fails when allocs/op
// or bytes/op grow beyond tolerance. ns/op is recorded and reported but
// never gated — wall time on shared CI VMs is too noisy to block on.
package benchtool

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// N returns the benchmark scale: def, unless the SUPG_BENCH_N
// environment variable names a positive integer. The Makefile's smoke
// targets shrink n so the CI gate diffs a run against a committed
// baseline of the same scale.
func N(def int) int {
	if s := os.Getenv("SUPG_BENCH_N"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			return v
		}
	}
	return def
}

// Result is one parsed benchmark line.
type Result struct {
	// Name is "<package>:<benchmark>" with the -GOMAXPROCS suffix
	// stripped, so runs from machines with different core counts (and
	// streams covering several packages, which may reuse benchmark
	// names) compare like against like.
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	// Metrics holds any extra testing.B.ReportMetric pairs (e.g. the
	// warm-oracle-calls/op the label-store benchmarks report).
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Run is a parsed `go test -bench` stream: its environment header plus
// every benchmark line, in order.
type Run struct {
	Goos    string
	Goarch  string
	CPU     string
	Results []Result
}

// Parse reads `go test -bench -benchmem` output (one or more packages
// concatenated) into a Run. Unrecognized lines are skipped; a line
// starting with "Benchmark" that fails to parse is an error, so a
// malformed stream cannot silently gate nothing.
func Parse(r io.Reader) (Run, error) {
	var run Run
	pkg := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos: "):
			run.Goos = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			run.Goarch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			run.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "Benchmark"):
			res, err := parseLine(line, pkg)
			if err != nil {
				return Run{}, err
			}
			run.Results = append(run.Results, res)
		}
	}
	if err := sc.Err(); err != nil {
		return Run{}, err
	}
	return run, nil
}

// parseLine parses one benchmark result line:
//
//	BenchmarkFoo/sub-8  55  21210042 ns/op  35112 B/op  35 allocs/op  123 extra-metric
func parseLine(line, pkg string) (Result, error) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Result{}, fmt.Errorf("benchtool: short benchmark line %q", line)
	}
	name := fields[0]
	// Strip the -GOMAXPROCS suffix go test appends to every name.
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	res := Result{Name: pkg + ":" + name}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, fmt.Errorf("benchtool: bad iteration count in %q", line)
	}
	res.Iterations = iters
	// The rest of the line is (value, unit) pairs.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Result{}, fmt.Errorf("benchtool: bad metric value %q in %q", fields[i], line)
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			res.NsPerOp = v
		case "B/op":
			res.BytesPerOp = v
		case "allocs/op":
			res.AllocsPerOp = v
		default:
			if res.Metrics == nil {
				res.Metrics = make(map[string]float64)
			}
			res.Metrics[unit] = v
		}
	}
	return res, nil
}

// Tolerance bounds how far a candidate may drift above its baseline
// before Compare fails: value > base*(1+Rel) + Abs. The absolute slack
// absorbs size-class rounding and goroutine-stack jitter on tiny
// baselines where a pure percentage would be meaninglessly tight.
type Tolerance struct {
	Rel float64
	Abs float64
}

func (t Tolerance) exceeded(base, cand float64) bool {
	return cand > base*(1+t.Rel)+t.Abs
}

// DefaultAllocTolerance and DefaultBytesTolerance are the CI gate's
// bounds. allocs/op is near-deterministic (slack covers worker
// goroutine jitter); bytes/op wobbles with allocator size classes.
var (
	DefaultAllocTolerance = Tolerance{Rel: 0.10, Abs: 4}
	DefaultBytesTolerance = Tolerance{Rel: 0.15, Abs: 1024}
)

// Compare checks every baseline result against the candidate run.
// allocs/op and bytes/op regressions beyond tolerance are failures;
// ns/op is reported in the returned summary lines but never fails. A
// baseline benchmark missing from the candidate is a failure — a gate
// that silently checks nothing is worse than no gate.
func Compare(baseline []Result, cand Run, allocTol, bytesTol Tolerance) (summary []string, failures []string) {
	byName := make(map[string]Result, len(cand.Results))
	for _, r := range cand.Results {
		byName[r.Name] = r
	}
	names := make([]string, 0, len(baseline))
	base := make(map[string]Result, len(baseline))
	for _, r := range baseline {
		names = append(names, r.Name)
		base[r.Name] = r
	}
	sort.Strings(names)
	for _, name := range names {
		b := base[name]
		c, ok := byName[name]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: missing from candidate run", name))
			continue
		}
		summary = append(summary, fmt.Sprintf(
			"%s: ns/op %.0f -> %.0f (not gated), B/op %.0f -> %.0f, allocs/op %.0f -> %.0f",
			name, b.NsPerOp, c.NsPerOp, b.BytesPerOp, c.BytesPerOp, b.AllocsPerOp, c.AllocsPerOp))
		if allocTol.exceeded(b.AllocsPerOp, c.AllocsPerOp) {
			failures = append(failures, fmt.Sprintf("%s: allocs/op regressed %.0f -> %.0f (tolerance %.0f%% + %.0f)",
				name, b.AllocsPerOp, c.AllocsPerOp, allocTol.Rel*100, allocTol.Abs))
		}
		if bytesTol.exceeded(b.BytesPerOp, c.BytesPerOp) {
			failures = append(failures, fmt.Sprintf("%s: B/op regressed %.0f -> %.0f (tolerance %.0f%% + %.0f)",
				name, b.BytesPerOp, c.BytesPerOp, bytesTol.Rel*100, bytesTol.Abs))
		}
	}
	return summary, failures
}
