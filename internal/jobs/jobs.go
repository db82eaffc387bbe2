// Package jobs provides the asynchronous job subsystem: a manager with
// a bounded worker pool and a full job lifecycle — submit → queued →
// running → done/failed/cancelled — with context-based cancellation,
// progress reporting of oracle calls consumed, and retention-based
// garbage collection of finished jobs.
//
// The manager is generic over the work it runs: a Runner callback
// executes one job under a context and reports progress. The server
// plugs in an engine query executor; tests plug in stubs. This keeps
// the lifecycle machinery independent of query semantics and reusable
// for future workloads (dataset imports, experiment sweeps).
package jobs

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"supg/internal/metrics"
)

// State is a job lifecycle state.
type State string

// Job lifecycle states. Queued and Running are active; Done, Failed,
// and Cancelled are terminal.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Runner executes one job's payload under ctx. It should honor ctx
// promptly (the engine's oracle layer checks it on every uncached
// call) and report cumulative oracle consumption through progress,
// one report at a time with increasing totals, as the engine's
// ExecOptions.Progress delivers them. The returned value becomes the
// job's Result.
type Runner func(ctx context.Context, payload any, progress func(oracleCalls int)) (any, error)

// Config tunes a Manager. The zero value selects the defaults noted on
// each field.
type Config struct {
	// Workers is the worker-pool size (default 4).
	Workers int
	// QueueDepth bounds the number of jobs waiting for a worker
	// (default 256); Submit fails with ErrQueueFull beyond it.
	QueueDepth int
	// Retention is how long finished jobs remain queryable before GC
	// (default 15 minutes).
	Retention time.Duration
	// MaxFinished caps the number of finished jobs kept regardless of
	// age (default 1024); the oldest are evicted first.
	MaxFinished int
	// Counters, when non-nil, records job lifecycle transitions.
	Counters *metrics.Counters
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.Retention <= 0 {
		c.Retention = 15 * time.Minute
	}
	if c.MaxFinished <= 0 {
		c.MaxFinished = 1024
	}
	return c
}

// ErrQueueFull is returned by Submit when the pending queue is at
// capacity.
var ErrQueueFull = errors.New("jobs: queue full")

// ErrShutdown is returned by Submit after Shutdown has begun.
var ErrShutdown = errors.New("jobs: manager shut down")

// Job is one unit of asynchronous work. All fields are private; read
// them through Snapshot.
type Job struct {
	id      string
	payload any

	// oracleCalls is written by the runner's progress hook, possibly
	// from several dispatcher goroutines, so it lives outside mu.
	oracleCalls atomic.Int64

	mu        sync.Mutex
	state     State
	err       string
	result    any
	submitted time.Time
	started   time.Time
	finished  time.Time
	cancel    context.CancelFunc
}

// ID returns the job's identifier.
func (j *Job) ID() string { return j.id }

// Snapshot is a point-in-time copy of a job's externally visible state.
type Snapshot struct {
	ID          string
	State       State
	Error       string
	OracleCalls int
	SubmittedAt time.Time
	StartedAt   time.Time // zero until the job starts
	FinishedAt  time.Time // zero until the job finishes
	Payload     any
	Result      any // non-nil only when State == StateDone
}

// Snapshot returns the job's current state.
func (j *Job) Snapshot() Snapshot {
	j.mu.Lock()
	defer j.mu.Unlock()
	return Snapshot{
		ID:          j.id,
		State:       j.state,
		Error:       j.err,
		OracleCalls: int(j.oracleCalls.Load()),
		SubmittedAt: j.submitted,
		StartedAt:   j.started,
		FinishedAt:  j.finished,
		Payload:     j.payload,
		Result:      j.result,
	}
}

// Manager owns the worker pool and the job table.
type Manager struct {
	cfg    Config
	runner Runner

	baseCtx    context.Context
	baseCancel context.CancelFunc

	queue   chan *Job
	workers sync.WaitGroup

	gcStop chan struct{}
	gcDone chan struct{}
	// drainDone closes once every worker has exited and GC has stopped;
	// concurrent Shutdown callers all wait on it.
	drainDone chan struct{}

	mu     sync.Mutex
	jobs   map[string]*Job
	seq    int64
	closed bool
}

// NewManager starts a manager with cfg.Workers workers ready to run
// jobs through runner. Call Shutdown to stop it.
func NewManager(runner Runner, cfg Config) *Manager {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		cfg:        cfg,
		runner:     runner,
		baseCtx:    ctx,
		baseCancel: cancel,
		queue:      make(chan *Job, cfg.QueueDepth),
		gcStop:     make(chan struct{}),
		gcDone:     make(chan struct{}),
		drainDone:  make(chan struct{}),
		jobs:       make(map[string]*Job),
	}
	m.workers.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go m.worker()
	}
	go m.gcLoop()
	return m
}

// Submit enqueues a new job for the payload and returns it in
// StateQueued. It fails with ErrQueueFull when the pending queue is at
// capacity and ErrShutdown after Shutdown has begun.
func (m *Manager) Submit(payload any) (*Job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, ErrShutdown
	}
	m.seq++
	j := &Job{
		id:        fmt.Sprintf("job-%06d", m.seq),
		payload:   payload,
		state:     StateQueued,
		submitted: time.Now(),
	}
	// The enqueue happens under m.mu so it cannot race Shutdown's
	// close(m.queue): Shutdown flips closed under the same lock before
	// closing the channel. The send never blocks (select/default).
	select {
	case m.queue <- j:
		m.jobs[j.id] = j
		m.cfg.Counters.JobSubmitted()
		return j, nil
	default:
		return nil, fmt.Errorf("%w (depth %d)", ErrQueueFull, m.cfg.QueueDepth)
	}
}

// Get returns the job with the given id.
func (m *Manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// List returns a snapshot of every known job, newest first.
func (m *Manager) List() []Snapshot {
	m.mu.Lock()
	out := make([]Snapshot, 0, len(m.jobs))
	for _, j := range m.jobs {
		out = append(out, j.Snapshot())
	}
	m.mu.Unlock()
	sort.Slice(out, func(a, b int) bool {
		if !out[a].SubmittedAt.Equal(out[b].SubmittedAt) {
			return out[a].SubmittedAt.After(out[b].SubmittedAt)
		}
		return out[a].ID > out[b].ID
	})
	return out
}

// Cancel stops the job: a queued job moves straight to StateCancelled
// (a worker that later dequeues it skips it), a running job has its
// context cancelled and reaches StateCancelled when its runner returns.
// Cancelling a finished job is a no-op. The bool reports whether the
// call changed anything.
func (m *Manager) Cancel(id string) (bool, error) {
	j, ok := m.Get(id)
	if !ok {
		return false, fmt.Errorf("jobs: unknown job %q", id)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	switch j.state {
	case StateQueued:
		j.state = StateCancelled
		j.err = "cancelled before start"
		j.finished = time.Now()
		m.cfg.Counters.JobCancelled()
		return true, nil
	case StateRunning:
		j.cancel() // worker observes ctx and finalizes the state
		return true, nil
	default:
		return false, nil
	}
}

// Remove deletes a finished job's record. Active jobs cannot be
// removed — cancel them first.
func (m *Manager) Remove(id string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return fmt.Errorf("jobs: unknown job %q", id)
	}
	j.mu.Lock()
	terminal := j.state.Terminal()
	j.mu.Unlock()
	if !terminal {
		return fmt.Errorf("jobs: job %q is %s; cancel it before removing", id, j.state)
	}
	delete(m.jobs, id)
	return nil
}

// Shutdown stops accepting jobs and drains the pool: queued and
// in-flight jobs run to completion unless ctx expires first, at which
// point every remaining job is cancelled and Shutdown returns ctx's
// error once the workers exit. Concurrent and repeated calls all block
// until the drain completes (whichever caller's ctx expires first
// forces the cancellation).
func (m *Manager) Shutdown(ctx context.Context) error {
	m.mu.Lock()
	first := !m.closed
	m.closed = true
	m.mu.Unlock()

	if first {
		close(m.queue) // workers drain the backlog then exit
		close(m.gcStop)
		go func() {
			m.workers.Wait()
			m.baseCancel()
			<-m.gcDone
			close(m.drainDone)
		}()
	}

	select {
	case <-m.drainDone:
		return nil
	case <-ctx.Done():
		m.baseCancel() // aborts running jobs; queued ones fail fast
		<-m.drainDone
		return ctx.Err()
	}
}

// worker runs queued jobs until the queue is closed and drained.
func (m *Manager) worker() {
	defer m.workers.Done()
	for j := range m.queue {
		m.run(j)
	}
}

// run executes one job through the runner and finalizes its state.
func (m *Manager) run(j *Job) {
	j.mu.Lock()
	if j.state != StateQueued { // cancelled while waiting
		j.mu.Unlock()
		return
	}
	ctx, cancel := context.WithCancel(m.baseCtx)
	j.cancel = cancel
	j.state = StateRunning
	j.started = time.Now()
	payload := j.payload
	j.mu.Unlock()
	defer cancel()

	result, err := m.runner(ctx, payload, func(n int) { j.oracleCalls.Store(int64(n)) })

	j.mu.Lock()
	defer j.mu.Unlock()
	j.finished = time.Now()
	switch {
	case err == nil:
		// A runner that finished its work keeps its result even if a
		// cancellation landed between completion and finalization — the
		// budget was spent either way.
		j.state = StateDone
		j.result = result
		m.cfg.Counters.JobDone()
	case ctx.Err() != nil:
		j.state = StateCancelled
		j.err = err.Error()
		m.cfg.Counters.JobCancelled()
	default:
		j.state = StateFailed
		j.err = err.Error()
		m.cfg.Counters.JobFailed()
	}
}

// gcLoop periodically evicts finished jobs past the retention window or
// beyond the finished-job cap.
func (m *Manager) gcLoop() {
	defer close(m.gcDone)
	interval := m.cfg.Retention / 4
	if interval > 30*time.Second {
		interval = 30 * time.Second
	}
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			m.gc(time.Now())
		case <-m.gcStop:
			return
		}
	}
}

// gc applies the retention policy at the given instant.
func (m *Manager) gc(now time.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	type finished struct {
		id string
		at time.Time
	}
	var fin []finished
	for id, j := range m.jobs {
		j.mu.Lock()
		terminal, at := j.state.Terminal(), j.finished
		j.mu.Unlock()
		if !terminal {
			continue
		}
		if now.Sub(at) > m.cfg.Retention {
			delete(m.jobs, id)
			continue
		}
		fin = append(fin, finished{id, at})
	}
	if extra := len(fin) - m.cfg.MaxFinished; extra > 0 {
		sort.Slice(fin, func(a, b int) bool { return fin[a].at.Before(fin[b].at) })
		for _, f := range fin[:extra] {
			delete(m.jobs, f.id)
		}
	}
}
