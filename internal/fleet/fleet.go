// Package fleet hosts many concurrent engine runs behind one supervisor —
// the checkpoint-manager-as-a-service layer under cmd/ppserve.
//
// A Supervisor owns the full lifecycle of every job submitted to it:
// workload factories are registered by name, Submit validates and journals
// a JobSpec, and the scheduler launches it as an ordinary pp engine when
// the machine budget admits it (queued → running → done/failed/stopped).
// Each job checkpoints into its own per-tenant namespace of the shared
// store (pp.NamespacedStore twice: tenant, then job), so no two jobs — and
// no two tenants — can ever see or clear each other's artifacts.
//
// Budget scheduling counts lines of execution (threads × procs). Jobs
// carry a priority and, for Shared-mode jobs, a MinThreads floor that
// makes them malleable: a high-priority submit into a full budget shrinks
// the lowest-priority malleable running job through the engine's own
// in-process adaptation (RequestAdapt, applied at the next safe point),
// and when budget frees up again starved jobs are grown back. Rigid jobs
// simply wait — admission control, the paper's "adaptation by restart"
// degenerate case.
//
// Crash safety is inherited from the checkpoint layer and lifted to the
// fleet: every accepted JobSpec is journalled through the store before
// Submit returns, and each engine's run ledger lives in the job's
// namespace. A kill -9 of the daemon followed by New+Start over the same
// store re-admits every unfinished journal entry and each re-launched
// engine resumes from its newest manifest/chain exactly as a single-run
// relaunch would.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"regexp"
	"sync"

	"ppar/pp"
)

// JobSpec describes one job: which workload to run, for which tenant, in
// which deployment shape, and how it participates in budget scheduling.
// The JSON field names are the POST /jobs wire format.
type JobSpec struct {
	// Tenant namespaces the job's checkpoints and quotas. Letters, digits,
	// '.', '_' and '-' only (it becomes a store key prefix).
	Tenant string `json:"tenant"`
	// Workload names a registered workload factory (sor, md, crypt, ea).
	Workload string `json:"workload"`
	// Params are workload-specific integer knobs (sizes, iterations,
	// seeds); each workload documents its keys and defaults.
	Params map[string]int `json:"params,omitempty"`
	// Mode is the deployment mode (unset = Sequential).
	Mode pp.Mode `json:"mode,omitempty"`
	// Threads/Procs size the deployment (defaulted per mode like pp.New).
	Threads int `json:"threads,omitempty"`
	Procs   int `json:"procs,omitempty"`
	// MinThreads, for Shared-mode jobs, is the smallest team the job may
	// be shrunk to under budget pressure; 0 (or >= Threads) makes the job
	// rigid. Malleable jobs may also be launched below Threads when the
	// budget is tight and grown later.
	MinThreads int `json:"min_threads,omitempty"`
	// MinProcs, for Distributed-mode jobs, is the smallest world the job
	// may be relaunched into; 0 (or >= Procs) makes the world rigid.
	// Unlike MinThreads this is not an in-place resize: an elastic job
	// under budget pressure is checkpoint-stopped, requeued, and
	// relaunched at fewer ranks, with the re-sharding restore
	// repartitioning its state — the paper's adaptation-by-restart path
	// with the restart made cheap. Elastic jobs may also be launched
	// below Procs when the budget is tight; they grow back only on their
	// next relaunch.
	MinProcs int `json:"min_procs,omitempty"`
	// Priority orders admission and decides who shrinks whom (higher wins;
	// equal priorities are FIFO).
	Priority int `json:"priority,omitempty"`
	// CheckpointEvery overrides the supervisor's default checkpoint
	// cadence in safe points.
	CheckpointEvery uint64 `json:"checkpoint_every,omitempty"`
}

var tenantRe = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]*$`)

// normalize validates the spec and fills mode-dependent defaults, exactly
// mirroring core.Config.normalize so a spec's budget cost is known before
// the engine exists.
func (s *JobSpec) normalize() error {
	if !tenantRe.MatchString(s.Tenant) {
		return fmt.Errorf("fleet: invalid tenant %q (letters, digits, '.', '_', '-')", s.Tenant)
	}
	if s.Workload == "" {
		return errors.New("fleet: spec names no workload")
	}
	if s.Mode == 0 {
		s.Mode = pp.Sequential
	}
	if s.Threads < 1 {
		s.Threads = 1
	}
	if s.Procs < 1 {
		s.Procs = 1
	}
	switch s.Mode {
	case pp.Sequential:
		s.Threads, s.Procs = 1, 1
	case pp.Shared:
		s.Procs = 1
	case pp.Distributed:
		s.Threads = 1
	case pp.Hybrid:
	default:
		return fmt.Errorf("fleet: unknown mode %d", int(s.Mode))
	}
	if s.MinThreads < 1 || s.MinThreads > s.Threads {
		s.MinThreads = s.Threads // rigid
	}
	if s.Mode != pp.Distributed || s.MinProcs < 1 || s.MinProcs > s.Procs {
		s.MinProcs = s.Procs // rigid world
	}
	return nil
}

// units is the job's budget cost in lines of execution.
func (s *JobSpec) units() int { return s.Threads * s.Procs }

// minUnits is the smallest budget the job can run on.
func (s *JobSpec) minUnits() int { return s.MinThreads * s.MinProcs }

// malleable reports whether the scheduler may resize the job at run time.
// Only Shared-mode teams resize in place today: Sequential has no
// machinery, and distributed worlds only resize through scheduled policies
// (ranks synchronise safe-point counters at collectives, not at
// RequestAdapt).
func (s *JobSpec) malleable() bool { return s.Mode == pp.Shared && s.MinThreads < s.Threads }

// elastic reports whether the scheduler may relaunch the job at a smaller
// world: the fixed TCP/Distributed world cannot resize in place, but a
// checkpoint-stop followed by a relaunch at fewer procs re-shards the
// state at restore time.
func (s *JobSpec) elastic() bool { return s.Mode == pp.Distributed && s.MinProcs < s.Procs }

// JobState is the lifecycle state of one job.
type JobState string

// The job lifecycle: Queued → Running → Done/Failed, with Stop carving out
// Stopping → Stopped. A Running job can also return to Queued when its
// engine parks itself (supervisor shutdown or a workload-internal
// checkpoint-and-stop): the job is suspended, not finished, and the
// journal keeps it pending so the next Start resumes it.
const (
	Queued   JobState = "queued"
	Running  JobState = "running"
	Stopping JobState = "stopping"
	Done     JobState = "done"
	Failed   JobState = "failed"
	Stopped  JobState = "stopped"
)

// terminal reports whether the state is final.
func terminal(st JobState) bool { return st == Done || st == Failed || st == Stopped }

// JobStatus is the externally visible snapshot of one job (the
// GET /jobs/{id} payload).
type JobStatus struct {
	ID       int64    `json:"id"`
	Tenant   string   `json:"tenant"`
	Workload string   `json:"workload"`
	State    JobState `json:"state"`
	Priority int      `json:"priority"`
	Mode     pp.Mode  `json:"mode"`
	// Desired/Min/Alloc are budget units (threads × procs): what the spec
	// asks for, the malleability floor, and what is currently allocated.
	Desired int `json:"desired"`
	Min     int `json:"min"`
	Alloc   int `json:"alloc"`
	// Result is the workload's deterministic result digest (Done jobs).
	Result string `json:"result,omitempty"`
	Error  string `json:"error,omitempty"`
	// Report carries the engine's measurements: live for running jobs,
	// final for finished ones, absent for jobs that never launched.
	Report *pp.Report `json:"report,omitempty"`
}

// Status is the fleet-wide snapshot (the GET /status payload).
type Status struct {
	Budget int         `json:"budget"`
	Used   int         `json:"used"`
	Free   int         `json:"free"`
	Jobs   []JobStatus `json:"jobs"`
}

// Instance is one engine-ready instantiation of a workload: the factory
// and modules to deploy, plus a closure producing the run's deterministic
// result digest (it shares the result pointer every replica writes
// through, following the repo's one-result-pointer idiom).
type Instance struct {
	Factory pp.Factory
	Modules []*pp.Module
	Result  func() string
}

// WorkloadFunc instantiates a workload for one job spec. It is called once
// per launch (so a resumed job re-instantiates cleanly) and must not
// retain state across calls.
type WorkloadFunc func(spec JobSpec) (*Instance, error)

// Config assembles one supervisor.
type Config struct {
	// Store is the shared checkpoint backend; every job checkpoints into
	// its own namespace of it and the job journal lives in it. Required.
	Store pp.Store
	// Budget is the machine budget in lines of execution (threads × procs
	// summed over running jobs). Required (>= 1).
	Budget int
	// TenantMaxJobs caps concurrently running jobs per tenant (0 = none).
	TenantMaxJobs int
	// TenantMaxUnits caps concurrently allocated budget units per tenant
	// (0 = none).
	TenantMaxUnits int
	// CheckpointEvery is the default checkpoint cadence in safe points for
	// jobs that do not set their own (default 8).
	CheckpointEvery uint64
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)
}

type job struct {
	id   int64
	spec JobSpec

	state   JobState
	stopReq bool // a user Stop is in flight
	alloc   int  // budget units currently allocated (0 when not running)
	pending int  // units after an in-flight resize (0 = none in flight)
	result  string
	err     error

	eng    *pp.Engine
	inst   *Instance
	cancel context.CancelFunc
	report *pp.Report    // final engine report, kept after the engine is gone
	done   chan struct{} // closed on transition to a terminal state
}

func (j *job) desired() int  { return j.spec.units() }
func (j *job) min() int      { return j.spec.minUnits() }
func (j *job) occupied() int { return max(j.alloc, j.pending) }

// Supervisor owns many engine lifecycles over one shared store. Create
// with New, Register workloads, then Start (which recovers the journal);
// all methods are safe for concurrent use.
type Supervisor struct {
	cfg Config

	mu        sync.Mutex
	workloads map[string]WorkloadFunc
	jobs      map[int64]*job
	order     []int64 // submission order (journal order after recovery)
	nextID    int64
	started   bool
	closed    bool
	crashed   bool // test hook: the daemon "died"; freeze journal and states

	kick     chan struct{}
	closeCh  chan struct{}
	loopDone chan struct{}
	wg       sync.WaitGroup
}

// New builds a supervisor; Register workloads and call Start before
// submitting.
func New(cfg Config) (*Supervisor, error) {
	if cfg.Store == nil {
		return nil, errors.New("fleet: config needs a store")
	}
	if cfg.Budget < 1 {
		return nil, errors.New("fleet: config needs a budget >= 1")
	}
	if cfg.CheckpointEvery == 0 {
		cfg.CheckpointEvery = 8
	}
	return &Supervisor{
		cfg:       cfg,
		workloads: map[string]WorkloadFunc{},
		jobs:      map[int64]*job{},
		nextID:    1,
		kick:      make(chan struct{}, 1),
		closeCh:   make(chan struct{}),
		loopDone:  make(chan struct{}),
	}, nil
}

func (s *Supervisor) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Register makes a workload available under name. Submissions referencing
// unregistered names are rejected; journal entries referencing names that
// are no longer registered fail at launch, not at recovery.
func (s *Supervisor) Register(name string, w WorkloadFunc) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.workloads[name] = w
}

// Start loads the journal, re-admits every unfinished entry, and starts
// the scheduler. It returns how many jobs were recovered into the queue;
// each resumes from its newest checkpoint when launched (the engine's own
// crash-restart path — the supervisor only re-creates the deployment).
func (s *Supervisor) Start() (recovered int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		return 0, errors.New("fleet: supervisor already started")
	}
	doc, err := s.loadJournalLocked()
	if err != nil {
		return 0, err
	}
	if doc.NextID > s.nextID {
		s.nextID = doc.NextID
	}
	for _, en := range doc.Entries {
		spec := en.Spec
		if nerr := spec.normalize(); nerr != nil {
			return 0, fmt.Errorf("fleet: journal entry %d: %w", en.ID, nerr)
		}
		j := &job{id: en.ID, spec: spec, done: make(chan struct{})}
		switch en.State {
		case journalPending:
			j.state = Queued
			recovered++
		case journalDone:
			j.state = Done
			j.result = en.Result
			close(j.done)
		case journalFailed:
			j.state = Failed
			j.err = errors.New(en.Error)
			close(j.done)
		case journalStopped:
			j.state = Stopped
			close(j.done)
		default:
			return 0, fmt.Errorf("fleet: journal entry %d has unknown state %q", en.ID, en.State)
		}
		s.jobs[j.id] = j
		s.order = append(s.order, j.id)
		if j.id >= s.nextID {
			s.nextID = j.id + 1
		}
	}
	s.started = true
	go s.loop()
	s.kickSched()
	return recovered, nil
}

// Submit validates, journals and queues one job. The spec is durable
// before Submit returns: a daemon crash after a successful Submit never
// loses the job. Jobs whose spec can never fit the machine budget are
// rejected here rather than queued forever.
func (s *Supervisor) Submit(spec JobSpec) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.started {
		return 0, errors.New("fleet: supervisor not started")
	}
	if s.closed {
		return 0, errors.New("fleet: supervisor closed")
	}
	if err := spec.normalize(); err != nil {
		return 0, err
	}
	if _, ok := s.workloads[spec.Workload]; !ok {
		return 0, fmt.Errorf("fleet: unknown workload %q", spec.Workload)
	}
	need := spec.units()
	if spec.malleable() || spec.elastic() {
		need = spec.minUnits() // resizable jobs can start at their floor
	}
	if need > s.cfg.Budget {
		return 0, fmt.Errorf("fleet: job needs %d units but the machine budget is %d", need, s.cfg.Budget)
	}
	if s.cfg.TenantMaxUnits > 0 && need > s.cfg.TenantMaxUnits {
		return 0, fmt.Errorf("fleet: job needs %d units but tenant %q is capped at %d", need, spec.Tenant, s.cfg.TenantMaxUnits)
	}
	id := s.nextID
	s.nextID++
	j := &job{id: id, spec: spec, state: Queued, done: make(chan struct{})}
	s.jobs[id] = j
	s.order = append(s.order, id)
	if err := s.saveJournalLocked(); err != nil {
		delete(s.jobs, id)
		s.order = s.order[:len(s.order)-1]
		s.nextID--
		return 0, fmt.Errorf("fleet: journalling job: %w", err)
	}
	s.kickSched()
	return id, nil
}

// Stop requests a job's end: a queued job is marked stopped immediately; a
// running job gets a graceful checkpoint-and-stop at its next safe point
// (state Stopping until the engine unwinds). Stopping an already finished
// job is an error. Note the deliberate crash semantics: the stop is only
// journalled once the engine has actually stopped, so a daemon killed
// mid-Stopping forgets the request and resumes the job — a crash never
// turns an unacknowledged stop into a lost job.
func (s *Supervisor) Stop(id int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.jobs[id]
	if j == nil {
		return fmt.Errorf("fleet: no job %d", id)
	}
	switch j.state {
	case Queued:
		j.state = Stopped
		close(j.done)
		if err := s.saveJournalLocked(); err != nil {
			s.logf("fleet: journalling stop of job %d: %v", id, err)
		}
		s.kickSched()
	case Running:
		j.state = Stopping
		j.stopReq = true
		if j.cancel != nil {
			j.cancel()
		}
	case Stopping:
		// Already on its way down.
	default:
		return fmt.Errorf("fleet: job %d already %s", id, j.state)
	}
	return nil
}

// Job returns one job's status.
func (s *Supervisor) Job(id int64) (JobStatus, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.jobs[id]
	if j == nil {
		return JobStatus{}, false
	}
	return s.statusLocked(j), true
}

// Status returns the fleet-wide snapshot: budget occupancy plus every
// job's status in submission order.
func (s *Supervisor) Status() Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Status{Budget: s.cfg.Budget, Used: s.usedLocked(), Jobs: make([]JobStatus, 0, len(s.order))}
	st.Free = st.Budget - st.Used
	for _, id := range s.order {
		st.Jobs = append(st.Jobs, s.statusLocked(s.jobs[id]))
	}
	return st
}

func (s *Supervisor) statusLocked(j *job) JobStatus {
	st := JobStatus{
		ID:       j.id,
		Tenant:   j.spec.Tenant,
		Workload: j.spec.Workload,
		State:    j.state,
		Priority: j.spec.Priority,
		Mode:     j.spec.Mode,
		Desired:  j.desired(),
		Min:      j.min(),
		Alloc:    j.alloc,
		Result:   j.result,
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	switch {
	case j.eng != nil && !terminal(j.state):
		rep := j.eng.Report()
		st.Report = &rep
	case j.report != nil:
		st.Report = j.report
	}
	return st
}

// WaitJob blocks until the job reaches a terminal state (or ctx ends) and
// returns its final status.
func (s *Supervisor) WaitJob(ctx context.Context, id int64) (JobStatus, error) {
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		return JobStatus{}, fmt.Errorf("fleet: no job %d", id)
	}
	select {
	case <-j.done:
		st, _ := s.Job(id)
		return st, nil
	case <-ctx.Done():
		return JobStatus{}, ctx.Err()
	}
}

// Drain blocks until every submitted job is terminal (or ctx ends).
func (s *Supervisor) Drain(ctx context.Context) error {
	for {
		s.mu.Lock()
		var waitID int64 = -1
		for _, id := range s.order {
			if !terminal(s.jobs[id].state) {
				waitID = id
				break
			}
		}
		s.mu.Unlock()
		if waitID < 0 {
			return nil
		}
		if _, err := s.WaitJob(ctx, waitID); err != nil {
			return err
		}
	}
}

// Close shuts the supervisor down gracefully: submissions are refused,
// every running engine checkpoint-and-stops at its next safe point, and
// the scheduler exits. Jobs interrupted this way stay pending in the
// journal, so a later New+Start over the same store resumes them — Close
// is the daemon's SIGTERM path, distinguishable from a crash only by
// being polite about it.
func (s *Supervisor) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for _, j := range s.jobs {
		if j.cancel != nil {
			j.cancel()
		}
	}
	s.mu.Unlock()
	s.wg.Wait()
	close(s.closeCh)
	<-s.loopDone
	return nil
}

// crashForTest simulates kill -9 for in-process tests: journal writes and
// state transitions freeze exactly where they are, and running engines are
// torn down through their contexts — their run ledgers stay dirty, as
// after a real kill, so a fresh supervisor over the same store must
// recover every unfinished job. (The true-SIGKILL drill, where even the
// checkpoint-and-stop courtesy is denied, lives in the cmd/ppserve e2e
// test.)
func (s *Supervisor) crashForTest() {
	s.mu.Lock()
	s.crashed = true
	for _, j := range s.jobs {
		if j.cancel != nil {
			j.cancel()
		}
	}
	s.mu.Unlock()
	s.wg.Wait()
	close(s.closeCh)
	<-s.loopDone
}

// runJob is one launch of one job: instantiate the workload, build the
// engine over the job's namespaced store, run it, classify the outcome.
func (s *Supervisor) runJob(j *job, ctx context.Context, units int) {
	defer s.wg.Done()
	defer s.kickSched()
	err := s.runEngine(j, ctx, units)

	s.mu.Lock()
	defer s.mu.Unlock()
	j.alloc, j.pending, j.cancel = 0, 0, nil
	if j.eng != nil {
		rep := j.eng.Report()
		j.report = &rep
		j.eng = nil
	}
	if s.crashed {
		return // the "dead" daemon records nothing
	}
	var stop *pp.ErrStopped
	switch {
	case err == nil:
		j.state = Done
		j.result = j.inst.Result()
		close(j.done)
	case errors.As(err, &stop):
		if j.stopReq {
			j.state = Stopped
			close(j.done)
		} else {
			// The engine parked itself without a user Stop: supervisor
			// shutdown, or a workload-internal checkpoint-and-stop. The
			// job is suspended, not finished — back to the queue (where a
			// closed supervisor leaves it for the next Start to resume).
			j.state = Queued
		}
	default:
		j.state = Failed
		j.err = err
		close(j.done)
	}
	j.inst = nil
	if err := s.saveJournalLocked(); err != nil {
		s.logf("fleet: journalling job %d (%s): %v", j.id, j.state, err)
	}
}

func (s *Supervisor) runEngine(j *job, ctx context.Context, units int) error {
	s.mu.Lock()
	w := s.workloads[j.spec.Workload]
	spec := j.spec
	s.mu.Unlock()
	if w == nil {
		return fmt.Errorf("fleet: unknown workload %q", spec.Workload)
	}
	inst, err := w(spec)
	if err != nil {
		return err
	}
	store, err := s.jobStore(spec.Tenant, j.id)
	if err != nil {
		return err
	}
	threads, procs := spec.Threads, spec.Procs
	if spec.malleable() {
		threads = units / spec.Procs
	}
	if spec.elastic() {
		procs = units / spec.Threads
	}
	every := spec.CheckpointEvery
	if every == 0 {
		every = s.cfg.CheckpointEvery
	}
	eng, err := pp.New(inst.Factory,
		pp.WithName("job"),
		pp.WithMode(spec.Mode),
		pp.WithThreads(threads),
		pp.WithProcs(procs),
		pp.WithModules(inst.Modules...),
		pp.WithStore(store),
		pp.WithCheckpointEvery(every),
		pp.WithAdaptNotify(func(sp uint64, mode pp.Mode, threads, procs int) {
			s.resizeApplied(j, threads*procs)
		}),
	)
	if err != nil {
		return err
	}
	s.mu.Lock()
	j.eng = eng
	j.inst = inst
	s.mu.Unlock()
	// A plan made while the engine was being built skipped this job as
	// launching; replan now that it can be resized, or a higher-priority
	// job queued in that window waits for this one to finish.
	s.kickSched()
	return eng.RunContext(ctx)
}

// jobStore namespaces the shared store twice — tenant, then job — so the
// final keys read "<tenant>~j<id>~job...": per-tenant isolation with
// per-job isolation inside it.
func (s *Supervisor) jobStore(tenant string, id int64) (pp.Store, error) {
	ts, err := pp.NamespacedStore(tenant, s.cfg.Store)
	if err != nil {
		return nil, err
	}
	return pp.NamespacedStore(fmt.Sprintf("j%d", id), ts)
}
