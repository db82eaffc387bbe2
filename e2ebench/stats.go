package main

import (
	"bufio"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// minTail is how many samples must lie beyond a percentile before the
// benchmark reports it: a tail estimate resting on fewer observations
// does not repeat from run to run.
const minTail = 10

// percentile returns the p-th percentile (0 < p < 100) of samples,
// interpolating linearly between order statistics. It refuses a
// percentile with fewer than minTail samples beyond it. samples is
// sorted in place.
func percentile(samples []float64, p float64) (float64, error) {
	n := len(samples)
	if p <= 0 || p >= 100 {
		return 0, fmt.Errorf("percentile %g outside (0, 100)", p)
	}
	if beyond := float64(n) * (100 - p) / 100; beyond < minTail {
		return 0, fmt.Errorf("p%g needs %d samples beyond it, have %.1f of %d", p, minTail, beyond, n)
	}
	sort.Float64s(samples)
	h := float64(n-1) * p / 100
	lo := int(math.Floor(h))
	if lo+1 >= n {
		return samples[n-1], nil
	}
	return samples[lo] + (h-float64(lo))*(samples[lo+1]-samples[lo]), nil
}

// median is the 50th percentile of a short list without the tail rule,
// for summarizing a handful of repeated set-ups or boots.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// failFrac is failed ÷ attempted, 0 when nothing was attempted.
func failFrac(attempted, failed int) float64 {
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// procField returns the first integer of the line "<key>: <n> ..." in a
// /proc key-value file such as /proc/<pid>/status or /proc/<pid>/io.
func procField(r io.Reader, key string) (int64, error) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		name, rest, ok := strings.Cut(sc.Text(), ":")
		if !ok || name != key {
			continue
		}
		f := strings.Fields(rest)
		if len(f) == 0 {
			return 0, fmt.Errorf("%s: no value", key)
		}
		v, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", key, err)
		}
		return v, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("%s: not found", key)
}

// readProcField opens /proc/<pid>/<file> ("self" for this process) and
// returns procField's value.
func readProcField(pid, file, key string) (int64, error) {
	f, err := os.Open(filepath.Join("/proc", pid, file))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	return procField(f, key)
}

// vmHWMBytes is a process's peak resident set (VmHWM) in bytes.
func vmHWMBytes(pid string) (int64, error) {
	kb, err := readProcField(pid, "status", "VmHWM")
	return kb << 10, err
}

// writeBytes is the write_bytes counter of /proc/<pid>/io: bytes the
// process caused to be sent to the storage layer.
func writeBytes(pid string) (int64, error) {
	return readProcField(pid, "io", "write_bytes")
}

// selfCPU is this process's user+system CPU time so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return rusageCPU(&ru)
}

// rusageCPU is user+system time of one rusage record.
func rusageCPU(ru *syscall.Rusage) time.Duration {
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// childCPU is the user+system CPU time an exited child consumed.
func childCPU(ps *os.ProcessState) time.Duration {
	if ps == nil {
		return 0
	}
	return ps.UserTime() + ps.SystemTime()
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}

// binaryBytes is the size of n records in the repository's binary
// dataset interchange format: a 16-byte header, one float64 score per
// record and one label bit per record.
func binaryBytes(n int) int64 {
	return 16 + 8*int64(n) + int64((n+7)/8)
}

// storedPerUserByte is persisted bytes ÷ the binary size of the records
// they hold.
func storedPerUserByte(stored int64, records int) float64 {
	return float64(stored) / float64(binaryBytes(records))
}

// gcSample is a runtime/metrics reading: GC cycles and the CPU time
// the garbage collector and the whole process have used.
type gcSample struct {
	cycles     uint64
	gcCPU, cpu float64
}

func readGC() gcSample {
	s := []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	var g gcSample
	if s[0].Value.Kind() == metrics.KindUint64 {
		g.cycles = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		g.gcCPU = s[1].Value.Float64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64 {
		g.cpu = s[2].Value.Float64()
	}
	return g
}

// memSample is the allocation counters of runtime.MemStats.
type memSample struct {
	totalAlloc, mallocs uint64
}

func readMem() memSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSample{totalAlloc: ms.TotalAlloc, mallocs: ms.Mallocs}
}

// heapLiveBytes collects garbage and returns the live heap.
func heapLiveBytes() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// probeSink keeps the host-speed probe's loop from being optimized away.
var probeSink uint64

// hostProbe times a fixed CPU-bound loop. It is a diagnostic of host
// speed printed beside each run; nothing scales or drops runs by it.
func hostProbe() time.Duration {
	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 30_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	probeSink += x
	return time.Since(start)
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
