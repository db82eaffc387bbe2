// Command e2ebench is the end-to-end benchmark of the SUPG engine: it
// generates a workload's inputs from a seed, drives the system over
// loopback HTTP in a closed loop, checks every answer against its own
// copy of the data, and prints each end-to-end metric by name and unit.
// With -trace 1 it replays the same ops through the layers' public
// entry points and prints per-layer metrics instead. See README.md.
//
// Usage (from the root of a checkout; run.sh builds and passes the
// binary paths):
//
//	bash e2ebench/run.sh --workload warm-select --seed 1 --seconds 12 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"supg/internal/metrics"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// setupRuns is how many times a run sets the system up; setup_s is the
// median, and the last set-up is the one measured.
const setupRuns = 3

// minOps is the fewest timed ops an untraced run makes: latency_p90_ms
// needs ten samples beyond it. A time-bounded run that reaches its
// deadline with fewer keeps going, whole cycles at a time.
const minOps = 100

// opSpec is one op of a workload's sequence.
type opSpec struct {
	// key identifies answers that must repeat exactly: the same text on
	// an unchanged table.
	key     int
	text    *queryText
	include bool
	// batch is the append batch an ingest op sends before its query
	// (-1 for none).
	batch int
}

// opRecord is one executed op.
type opRecord struct {
	opSpec
	k   int // op number within the run
	n   int // records in the queried table when it ran
	lat time.Duration
	ans answer
	err error
	met bool // the answer meets its query's targets

	udfCalls int64                    // benchmark oracle calls during the op (one client)
	childCPU time.Duration            // restart-recover: the boot's CPU time
	childHWM int64                    // restart-recover: the boot's VmHWM in bytes
	childIO  int64                    // restart-recover: the boot's write_bytes
	boot     *metrics.CounterSnapshot // restart-recover, traced: the boot's /v1/stats
}

// workload is one traffic mix.
type workload interface {
	// clients is the closed-loop client count of untraced runs.
	clients() int
	// generate builds every input from the seed. It is not timed.
	generate(b *bench) error
	// setup opens a fresh system and brings it to the state the first
	// timed op expects. It is timed.
	setup(b *bench) error
	// teardown releases the current system.
	teardown(b *bench) error
	// cycle returns the ops of cycle c, nil once a fixed op list is
	// exhausted. Time-bounded runs end on a cycle boundary, so every
	// per-op count averages over whole cycles and repeats exactly.
	cycle(c int) []opSpec
	// endCycle runs between cycles, with no op in flight.
	endCycle(b *bench) error
	// do executes one op with a client of its own.
	do(b *bench, cl *client, o *opRecord) error
	// newClient returns a client of the current system.
	newClient() *client
	// persistDir is the measured system's persistence directory ("" when
	// it has none).
	persistDir() string
}

// bench is one run: a workload, its seed and how it is measured.
type bench struct {
	name      string
	seed      uint64
	seconds   float64
	traced    bool
	serverBin string
	workDir   string
	w         workload
	log       io.Writer
	tr        *tracer // traced runs only
	nextOp    int     // number of the next op
}

var workloads = map[string]func() workload{
	"warm-select":     func() workload { return &warmSelect{} },
	"oracle-bound":    func() workload { return &oracleBound{} },
	"ingest-durable":  func() workload { return &ingestDurable{} },
	"restart-recover": func() workload { return &restartRecover{} },
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name      = fs.String("workload", "", "warm-select | oracle-bound | ingest-durable | restart-recover")
		seed      = fs.Uint64("seed", 1, "workload seed: the same seed generates the same inputs and ops")
		seconds   = fs.Float64("seconds", 12, "length of the timed window")
		trace     = fs.Int("trace", 0, "1 replays the ops through each layer and prints per-layer metrics")
		serverBin = fs.String("server-bin", "", "supg-server binary that restart-recover boots")
		workDir   = fs.String("work-dir", ".bench_build/e2ebench", "scratch directory for persisted state and the trace file")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	mk, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "e2ebench: need -workload (one of warm-select, oracle-bound, ingest-durable, restart-recover), -seconds > 0 and -trace 0|1\n")
		return 2
	}
	if *name == "restart-recover" && *serverBin == "" {
		fmt.Fprintln(stderr, "e2ebench: restart-recover needs -server-bin")
		return 2
	}
	dir, err := filepath.Abs(filepath.Join(*workDir, fmt.Sprintf("run-%d", os.Getpid())))
	if err == nil {
		err = os.MkdirAll(dir, 0o755)
	}
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: work dir: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)
	b := &bench{
		name: *name, seed: *seed, seconds: *seconds, traced: *trace == 1,
		serverBin: *serverBin, workDir: dir, w: mk(), log: stdout,
	}
	res, err := b.run()
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %s: %v\n", *name, err)
		return 1
	}
	if b.traced {
		if err := b.tr.write(filepath.Join(*workDir, fmt.Sprintf("trace-%s-seed%d.json", *name, *seed))); err != nil {
			fmt.Fprintf(stderr, "e2ebench: write trace: %v\n", err)
			return 1
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: encode result: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// window is what one closed-loop window measured.
type window struct {
	ops        []*opRecord
	cycles     int // the cycle after the window's last
	wall       time.Duration
	cpu        time.Duration
	mem0, mem1 memSample
	gc0, gc1   gcSample
	io0, io1   int64
	heapLive   uint64
	udfCalls   int64
}

func (b *bench) run() (*result, error) {
	fmt.Fprintf(b.log, "e2ebench workload=%s seed=%d seconds=%g trace=%v\n", b.name, b.seed, b.seconds, b.traced)
	fmt.Fprintf(b.log, "provenance: go=%s gomaxprocs=%d nproc=%d clients=%d\n",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), b.clients())
	if b.traced {
		b.tr = newTracer()
	}
	if err := b.w.generate(b); err != nil {
		return nil, fmt.Errorf("generate: %w", err)
	}
	if b.traced {
		for _, u := range oracles(b.w) {
			u.timing = b.tr.udf
		}
	}
	// Registered first, so a failed set-up still releases its system.
	defer b.w.teardown(b)
	var setups []float64
	for i := 0; i < setupRuns; i++ {
		if b.traced {
			// Keep only the measured set-up's layer timings.
			b.tr.setup = map[string]float64{}
		}
		runtime.GC()
		start := time.Now()
		if err := b.w.setup(b); err != nil {
			return nil, fmt.Errorf("setup %d: %w", i, err)
		}
		setups = append(setups, time.Since(start).Seconds())
		if i < setupRuns-1 {
			if err := b.w.teardown(b); err != nil {
				return nil, fmt.Errorf("teardown %d: %w", i, err)
			}
		}
	}
	fmt.Fprintf(b.log, "setup_s runs: %v\n", setups)

	probeBefore := hostProbe()
	if b.traced {
		return b.runTraced(probeBefore)
	}
	win, err := b.window(b.seconds, 0, -1, nil)
	if err != nil {
		return nil, err
	}
	probeAfter := hostProbe()
	fmt.Fprintf(b.log, "host probe: before=%.1fms after=%.1fms (diagnostic only)\n", ms(probeBefore), ms(probeAfter))
	sum, err := b.summarize(win)
	if err != nil {
		return nil, err
	}
	if sum.p90Err != nil && sum.failed < sum.ops {
		return nil, fmt.Errorf("latency_p90_ms: %w", sum.p90Err)
	}
	m := sum.endToEnd(median(setups))
	b.report(sum, m)
	return &result{Correct: sum.failed == 0, Attempted: len(win.ops), Failed: sum.failed, Metrics: m}, nil
}

func (b *bench) clients() int {
	if b.traced {
		// One client, so every oracle call and label lookup belongs to
		// exactly one op.
		return 1
	}
	return b.w.clients()
}

// window runs whole cycles from cycle c0 until seconds have passed — or,
// for a fixed op list, until cycle cEnd (or the list's end). replay,
// when non-nil, runs after each op on the same goroutine, outside the
// op's latency.
func (b *bench) window(seconds float64, c0, cEnd int, replay func(cl *client, o *opRecord) error) (*window, error) {
	nc := b.clients()
	clients := make([]*client, nc)
	for i := range clients {
		clients[i] = b.w.newClient()
		defer clients[i].close()
	}
	win := &window{}
	// Start from a collected heap, so set-up garbage is not charged to
	// the window.
	runtime.GC()
	win.io0, _ = writeBytes("self") // 0 where /proc/self/io is unreadable
	win.gc0, win.mem0 = readGC(), readMem()
	udf0 := b.udfCalls()
	cpu0 := selfCPU()
	t0 := time.Now()
	deadline := t0.Add(time.Duration(seconds * float64(time.Second)))
	// Past hardStop the window ends whatever it has, so a system that
	// stalls cannot hold a run past its time limit.
	hardStop := t0.Add(time.Duration(max(4*seconds, 60) * float64(time.Second)))
	fixed := fixedOps(b.w)
	for c := c0; ; c++ {
		specs := b.w.cycle(c)
		if specs == nil || (fixed && cEnd >= 0 && c >= cEnd) {
			break
		}
		ops := make([]*opRecord, len(specs))
		for i, s := range specs {
			ops[i] = &opRecord{opSpec: s, k: b.nextOp + i}
		}
		b.nextOp += len(specs)
		win.cycles = c + 1
		var next atomic.Int64
		var wg sync.WaitGroup
		errs := make([]error, nc)
		for ci := 0; ci < nc; ci++ {
			wg.Add(1)
			go func(ci int) {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(ops) {
						return
					}
					o := ops[i]
					start := time.Now()
					o.err = b.w.do(b, clients[ci], o)
					o.lat = time.Since(start)
					if replay != nil && o.err == nil {
						if err := replay(clients[ci], o); err != nil {
							errs[ci] = fmt.Errorf("op %d replay: %w", o.k, err)
							return
						}
					}
				}
			}(ci)
		}
		wg.Wait()
		for _, e := range errs {
			if e != nil {
				return nil, e
			}
		}
		win.ops = append(win.ops, ops...)
		if err := b.w.endCycle(b); err != nil {
			return nil, fmt.Errorf("end of cycle %d: %w", c, err)
		}
		now := time.Now()
		if now.After(hardStop) || (!fixed && now.After(deadline) && (b.traced || len(win.ops) >= minOps)) {
			break
		}
	}
	win.wall = time.Since(t0)
	win.cpu = selfCPU() - cpu0
	win.udfCalls = b.udfCalls() - udf0
	win.gc1, win.mem1 = readGC(), readMem()
	win.io1, _ = writeBytes("self")
	win.heapLive = heapLiveBytes()
	return win, nil
}

// fixedOps reports whether a workload runs a fixed op list instead of
// whole cycles until the deadline.
func fixedOps(w workload) bool {
	f, ok := w.(interface{ fixedOps() bool })
	return ok && f.fixedOps()
}

// oracles lists the benchmark-owned oracle UDFs of a workload (none
// for restart-recover, whose child process uses its own).
func oracles(w workload) []*oracleUDF {
	u, ok := w.(interface{ oracles() []*oracleUDF })
	if !ok {
		return nil
	}
	return u.oracles()
}

// udfCalls is the total call count of the benchmark's oracle UDFs.
func (b *bench) udfCalls() int64 {
	var n int64
	for _, o := range oracles(b.w) {
		n += o.calls.Load()
	}
	return n
}

// summary is a window reduced to the quantities the metrics report.
type summary struct {
	ops, failed              int
	qps                      float64
	p50, p90, p99            float64 // ms; NaN where refused
	p99Err, p90Err           error
	cpuPerOp                 float64 // ms
	oracleCalls, udfPerQ     float64
	udfCounter               float64 // benchmark UDF counter per query
	guarantee                float64
	allocPerOp, mallocsPerOp float64
	heapLiveMB, peakRSSMB    float64
	storedRatio              float64
	digest                   uint64
	firstErrs                []string
	metByKind                string // answers meeting their target, per target kind
	byText                   string // median latency of each repeated text
}

func (b *bench) summarize(win *window) (*summary, error) {
	s := &summary{ops: len(win.ops)}
	if s.ops == 0 {
		return nil, fmt.Errorf("no op completed in the window")
	}
	ck := newChecker()
	sort.Slice(win.ops, func(i, j int) bool { return win.ops[i].k < win.ops[j].k })
	lats := make([]float64, 0, s.ops)
	var calls, udf, met int
	var childCPU time.Duration
	var hwm []float64
	var kindMet, kindAll [3]int
	for _, o := range win.ops {
		lats = append(lats, ms(o.lat))
		childCPU += o.childCPU
		if o.childHWM > 0 {
			hwm = append(hwm, float64(o.childHWM)/(1<<20))
		}
		if o.err == nil {
			o.met, o.err = ck.check(o)
		}
		if o.err != nil {
			s.failed++
			if len(s.firstErrs) < 5 {
				s.firstErrs = append(s.firstErrs, fmt.Sprintf("op %d (key %d): %v", o.k, o.key, o.err))
			}
			continue
		}
		calls += o.ans.OracleCalls
		udf += o.ans.OracleCalls - o.ans.LabelCacheHits
		kindAll[o.text.kind]++
		if o.met {
			met++
			kindMet[o.text.kind]++
		}
	}
	ok := s.ops - s.failed
	if ok == 0 {
		return s, nil
	}
	s.digest = ck.digest()
	perText := map[int][]float64{}
	for _, o := range win.ops {
		perText[o.key] = append(perText[o.key], ms(o.lat))
	}
	keys := make([]int, 0, len(perText))
	for k, l := range perText {
		if len(l) >= 5 {
			keys = append(keys, k)
		}
	}
	sort.Ints(keys)
	for _, k := range keys {
		s.byText += fmt.Sprintf("%d:%.2fms ", k, median(perText[k]))
	}
	for k, name := range []string{"RT", "PT", "JT"} {
		if kindAll[k] > 0 {
			s.metByKind += fmt.Sprintf("%s %d/%d ", name, kindMet[k], kindAll[k])
		}
	}
	s.qps = float64(s.ops) / win.wall.Seconds()
	s.p50, _ = percentile(lats, 50)
	if s.p90, s.p90Err = percentile(lats, 90); s.p90Err != nil {
		s.p90 = math.NaN()
	}
	if s.p99, s.p99Err = percentile(lats, 99); s.p99Err != nil {
		s.p99 = math.NaN()
	}
	s.oracleCalls = float64(calls) / float64(ok)
	s.udfPerQ = float64(udf) / float64(ok)
	s.udfCounter = float64(win.udfCalls) / float64(s.ops)
	s.guarantee = float64(met) / float64(ok)
	s.allocPerOp = float64(win.mem1.totalAlloc-win.mem0.totalAlloc) / float64(s.ops)
	s.mallocsPerOp = float64(win.mem1.mallocs-win.mem0.mallocs) / float64(s.ops)
	s.heapLiveMB = float64(win.heapLive) / (1 << 20)
	if len(hwm) > 0 {
		s.cpuPerOp = ms(childCPU) / float64(s.ops)
		s.peakRSSMB = median(hwm)
	} else {
		s.cpuPerOp = ms(win.cpu) / float64(s.ops)
		hw, err := vmHWMBytes("self")
		if err != nil {
			return nil, fmt.Errorf("VmHWM: %w", err)
		}
		s.peakRSSMB = float64(hw) / (1 << 20)
	}
	if dir := b.w.persistDir(); dir != "" {
		stored, err := dirBytes(dir)
		if err != nil {
			return nil, fmt.Errorf("stored bytes: %w", err)
		}
		s.storedRatio = storedPerUserByte(stored, persistedRecords(b.w))
	}
	return s, nil
}

// persistedRecords is how many records a workload's persisted tables
// hold at the end of the run.
func persistedRecords(w workload) int {
	p, ok := w.(interface{ persistedRecords() int })
	if !ok {
		return 0
	}
	return p.persistedRecords()
}

// endToEnd is the gated metric set: every one applies to every workload
// and is never 0.
func (s *summary) endToEnd(setup float64) map[string]metric {
	return map[string]metric{
		"setup_s":                {setup, "s"},
		"qps":                    {s.qps, "ops/s"},
		"latency_p50_ms":         {s.p50, "ms"},
		"latency_p90_ms":         {s.p90, "ms"},
		"cpu_ms_per_op":          {s.cpuPerOp, "ms"},
		"oracle_calls_per_query": {s.oracleCalls, "calls"},
		"peak_rss_mb":            {s.peakRSSMB, "MiB"},
	}
}

// report prints every end-to-end quantity, gated or not, one per line.
func (b *bench) report(s *summary, gated map[string]metric) {
	w := b.log
	fmt.Fprintf(w, "timed ops: %d (the sample count behind every percentile)\n", s.ops)
	fmt.Fprintf(w, "result digest: %016x\n", s.digest)
	for _, e := range s.firstErrs {
		fmt.Fprintf(w, "FAILED %s\n", e)
	}
	names := make([]string, 0, len(gated))
	for n := range gated {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "metric %-28s %14.6g %s\n", n, gated[n].Value, gated[n].Unit)
	}
	extra := []struct {
		name, unit string
		v          float64
		applies    bool
	}{
		{"fail_frac", "ratio", failFrac(s.ops, s.failed), true},
		{"guarantee_met_frac", "ratio", s.guarantee, true},
		{"latency_p99_ms", "ms", s.p99, s.p99Err == nil},
		{"oracle_udf_calls_per_query", "calls", s.udfPerQ, true},
		{"oracle_udf_counter_per_op", "calls", s.udfCounter, b.name != "restart-recover"},
		{"alloc_bytes_per_op", "B", s.allocPerOp, b.name != "restart-recover"},
		{"allocs_per_op", "count", s.mallocsPerOp, b.name != "restart-recover"},
		{"heap_live_mb", "MiB", s.heapLiveMB, b.name != "restart-recover"},
		{"stored_bytes_per_user_byte", "ratio", s.storedRatio, b.w.persistDir() != ""},
	}
	for _, e := range extra {
		if e.applies {
			fmt.Fprintf(w, "report %-28s %14.6g %s\n", e.name, e.v, e.unit)
		}
	}
	if s.p99Err != nil {
		fmt.Fprintf(w, "report latency_p99_ms refused: %v\n", s.p99Err)
	}
	fmt.Fprintf(w, "report guarantee_met by target: %s\n", s.metByKind)
	if s.byText != "" {
		fmt.Fprintf(w, "report median latency by text: %s\n", s.byText)
	}
}
