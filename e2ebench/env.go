package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"sync/atomic"
	"syscall"
	"time"

	"supg/internal/metrics"
	"supg/internal/server"
)

// inproc is a server.Server serving loopback HTTP inside the benchmark
// process.
type inproc struct {
	srv  *server.Server
	hs   *http.Server
	base string
	done chan struct{} // closed once Serve has returned
}

// startServer opens a server with opts and serves it on a loopback
// port. wrap, when non-nil, wraps the handler (the traced run's
// handler timer).
func startServer(seed uint64, opts server.Options, wrap func(http.Handler) http.Handler) (*inproc, error) {
	srv, err := server.Open(seed, opts)
	if err != nil {
		return nil, fmt.Errorf("open server: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Shutdown(context.Background()) // the listen error is the one to report
		return nil, fmt.Errorf("listen: %w", err)
	}
	var h http.Handler = srv
	if wrap != nil {
		h = wrap(srv)
	}
	p := &inproc{srv: srv, hs: &http.Server{Handler: h}, base: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		_ = p.hs.Serve(ln) // always http.ErrServerClosed after close
	}()
	return p, nil
}

// close stops serving, waits for the serve loop to exit and shuts the
// server down (flushing its label WAL and storage tier).
func (p *inproc) close() error {
	err := p.hs.Close()
	<-p.done
	if serr := p.srv.Shutdown(context.Background()); err == nil {
		err = serr
	}
	return err
}

// opHeader carries the op number to the traced run's handler timer.
const opHeader = "X-E2ebench-Op"

// client is one closed-loop client. It reuses one body buffer, so
// reading an answer allocates no id list.
type client struct {
	hc      *http.Client
	base    string
	buf     []byte
	scratch []byte
}

func newClient(base string) *client {
	return &client{
		base: base,
		hc: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 4,
			DisableCompression:  true,
		}},
	}
}

// close drops idle connections. Nil-safe: restart-recover's ops bring
// their own clients.
func (c *client) close() {
	if c != nil {
		c.hc.CloseIdleConnections()
	}
}

// do sends one request and reads the whole body into the client's
// buffer. A non-2xx status is an error carrying the body.
func (c *client) do(method, path, contentType string, body []byte, op int) ([]byte, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if op >= 0 {
		req.Header.Set(opHeader, strconv.Itoa(op))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	c.buf, err = readInto(resp.Body, c.buf[:0])
	if err != nil {
		return nil, fmt.Errorf("%s %s: read body: %w", method, path, err)
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: status %d: %.200s", method, path, resp.StatusCode, c.buf)
	}
	return c.buf, nil
}

// readInto appends everything r yields to buf, growing it only when full.
func readInto(r io.Reader, buf []byte) ([]byte, error) {
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if errors.Is(err, io.EOF) {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// queryBody renders a /v1/query request.
func queryBody(sql string, include bool) []byte {
	b, err := json.Marshal(struct {
		SQL            string `json:"sql"`
		IncludeIndices bool   `json:"include_indices,omitempty"`
	}{sql, include})
	if err != nil {
		panic(err) // a struct of a string and a bool always encodes
	}
	return b
}

// query posts a query and parses the answer; scan, when non-nil,
// receives the id list.
func (c *client) query(body []byte, scan *idScan, op int) (answer, error) {
	raw, err := c.do(http.MethodPost, "/v1/query", "application/json", body, op)
	if err != nil {
		return answer{}, err
	}
	return parseAnswer(raw, scan, &c.scratch)
}

var indicesKey = []byte(`,"indices":[`)

// parseAnswer decodes a /v1/query body. The id array, if present, is
// walked in place and fed to scan; the rest of the object is decoded
// with the array cut out.
func parseAnswer(raw []byte, scan *idScan, scratch *[]byte) (answer, error) {
	a := answer{bytes: len(raw)}
	obj, ids := raw, []byte(nil)
	if i := bytes.Index(raw, indicesKey); i >= 0 {
		j := i + len(indicesKey)
		end := bytes.IndexByte(raw[j:], ']')
		if end < 0 {
			return a, errors.New("unterminated id list")
		}
		ids = raw[j : j+end+1]
		*scratch = append(append((*scratch)[:0], raw[:i]...), raw[j+end+1:]...)
		obj = *scratch
	}
	if err := json.Unmarshal(obj, &a); err != nil {
		return a, fmt.Errorf("decode answer: %w", err)
	}
	if scan != nil {
		// The scan needs τ, which precedes the ids in the answer.
		scan.tau = a.tau()
		if ids != nil {
			if _, err := walkIDs(ids, scan); err != nil {
				return a, err
			}
		}
		a.ids = scan
	}
	return a, nil
}

// walkIDs parses the non-negative integers of a JSON array body up to
// its closing bracket, returning the bracket's offset.
func walkIDs(b []byte, scan *idScan) (int, error) {
	v, digits := 0, 0
	for i, c := range b {
		switch {
		case c >= '0' && c <= '9':
			v = v*10 + int(c-'0')
			digits++
		case c == ',' || c == ']':
			if digits > 0 && scan != nil {
				scan.visit(v)
			}
			if c == ']' {
				return i, nil
			}
			v, digits = 0, 0
		default:
			return 0, fmt.Errorf("unexpected byte %q in id list", c)
		}
	}
	return 0, errors.New("unterminated id list")
}

// upload PUTs a binary dataset body to name (or to name/append).
func (c *client) upload(path string, body []byte, op int) error {
	_, err := c.do(http.MethodPut, path, "application/octet-stream", body, op)
	return err
}

// stats reads GET /v1/stats.
func (c *client) stats() (metrics.CounterSnapshot, error) {
	var s metrics.CounterSnapshot
	raw, err := c.do(http.MethodGet, "/v1/stats", "", nil, -1)
	if err == nil {
		err = json.Unmarshal(raw, &s)
	}
	return s, err
}

// oracleUDF is the benchmark's oracle: it answers from the benchmark's
// own ground truth, optionally sleeping per call like a remote model,
// and counts every call. When traced it also records call timing.
type oracleUDF struct {
	t      *table
	sleep  time.Duration
	calls  atomic.Int64
	timing *udfTiming
}

func (u *oracleUDF) call(i int) (bool, error) {
	u.calls.Add(1)
	var start time.Time
	if u.timing != nil {
		start = time.Now()
	}
	if u.sleep > 0 {
		time.Sleep(u.sleep)
	}
	if i < 0 || i >= u.t.len() {
		return false, fmt.Errorf("oracle: record %d outside table %s", i, u.t.name)
	}
	v := u.t.labels[i]
	if u.timing != nil {
		u.timing.add(start, time.Now())
	}
	return v, nil
}

// udfTiming accumulates oracle call durations and the interval from the
// first call's start to the last call's end, since the last reset.
type udfTiming struct {
	t0          time.Time
	busy        atomic.Int64
	first, last atomic.Int64 // ns since t0; first is 0 when unset
}

func (u *udfTiming) reset() {
	u.busy.Store(0)
	u.first.Store(0)
	u.last.Store(0)
}

func (u *udfTiming) add(start, end time.Time) {
	s, e := int64(start.Sub(u.t0))+1, int64(end.Sub(u.t0))+1
	u.busy.Add(e - s)
	for {
		f := u.first.Load()
		if (f != 0 && f <= s) || u.first.CompareAndSwap(f, s) {
			break
		}
	}
	for {
		l := u.last.Load()
		if l >= e || u.last.CompareAndSwap(l, e) {
			break
		}
	}
}

// span is last-end minus first-start, 0 with no calls.
func (u *udfTiming) span() time.Duration {
	f, l := u.first.Load(), u.last.Load()
	if f == 0 {
		return 0
	}
	return time.Duration(l - f)
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// boot is one supg-server child process serving a persisted directory.
type boot struct {
	cmd    *exec.Cmd
	client *client
}

// startBoot spawns the server binary on dir with the flags an operator
// would pass.
func startBoot(bin, dir string, seed uint64, table string) (*boot, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(bin,
		"-addr", addr,
		"-seed", strconv.FormatUint(seed, 10),
		"-persist-dir", dir,
		"-preload", table,
		"-preload-proxy-variants",
	)
	cmd.Stdout, cmd.Stderr = io.Discard, io.Discard
	// The child dies with the benchmark, even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	return &boot{cmd: cmd, client: newClient("http://" + addr)}, nil
}

// firstAnswer posts body until the child accepts the connection, then
// returns its answer. Connection refusals while the child boots are
// retried every 200µs until deadline.
func (b *boot) firstAnswer(body []byte, scan *idScan, deadline time.Time) (answer, error) {
	for {
		a, err := b.client.query(body, scan, -1)
		if err == nil || !errors.Is(err, syscall.ECONNREFUSED) || time.Now().After(deadline) {
			return a, err
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// stop sends SIGTERM, waits for the child to exit and returns the CPU
// time it used. A child that ignores SIGTERM for 10s is killed.
func (b *boot) stop() (time.Duration, error) {
	b.client.close()
	if err := b.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return 0, fmt.Errorf("signal child: %w", err)
	}
	done := make(chan error, 1)
	go func() { done <- b.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			return childCPU(b.cmd.ProcessState), fmt.Errorf("child exit: %w", err)
		}
	case <-time.After(10 * time.Second):
		_ = b.cmd.Process.Kill() // the wait below reports the outcome
		<-done
		return childCPU(b.cmd.ProcessState), errors.New("child ignored SIGTERM for 10s")
	}
	return childCPU(b.cmd.ProcessState), nil
}

// pid is the child's process id as a /proc path element.
func (b *boot) pid() string { return strconv.Itoa(b.cmd.Process.Pid) }

// copyDir copies the regular files of a flat directory tree.
func copyDir(src, dst string) error {
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	for _, e := range entries {
		s, d := src+"/"+e.Name(), dst+"/"+e.Name()
		if e.IsDir() {
			if err := copyDir(s, d); err != nil {
				return err
			}
			continue
		}
		data, err := os.ReadFile(s)
		if err != nil {
			return err
		}
		if err := os.WriteFile(d, data, 0o644); err != nil {
			return err
		}
	}
	return nil
}
