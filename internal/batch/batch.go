// Package batch is the multi-query batching subsystem: a per-table
// scheduler that sits between admission control and the engine, groups
// compatible queued vector queries inside a short formation window (or
// while the group waits for an admission slot to free), and hands each
// group to a shared-scan runner that walks every segment once for the
// whole group. Members get their results fanned back individually,
// byte-identical to isolated execution.
//
// The scheduler owns formation and isolation only — it never inspects
// plans. The engine supplies the grouping key (compatibility), a
// profile of observed execution statistics, and the runner; the
// batched-vs-solo decision delegates to plan.ChooseBatch over those
// observed statistics, so the window is paid only where the shared
// scan is predicted to earn it back.
//
// A query decided solo — ungroupable, or routed solo by the cost model
// — is a group of one that was never going to form, so it never pays
// for formation: Submit runs it on the submitting goroutine (gate,
// runner, release), with no group goroutine, channel or context of its
// own. A solo query never changes goroutine inside the scheduler.
package batch

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"blendhouse/internal/obs"
	"blendhouse/internal/plan"
)

// Formation and shared-scan metrics (SHOW METRICS / Prometheus).
var (
	mQueries      = obs.Default().Counter("bh.batch.queries")
	mGroups       = obs.Default().Counter("bh.batch.groups")
	mGrouped      = obs.Default().Counter("bh.batch.grouped_queries")
	mSolo         = obs.Default().Counter("bh.batch.solo")
	mUngroupable  = obs.Default().Counter("bh.batch.ungroupable")
	mScansSaved   = obs.Default().Counter("bh.batch.segment_scans_saved")
	mMemberCancel = obs.Default().Counter("bh.batch.member_canceled")
	mFormWait     = obs.Default().Histogram("bh.batch.formation_wait")

	mSize1  = obs.Default().Counter("bh.batch.group_size.1")
	mSize4  = obs.Default().Counter("bh.batch.group_size.2_4")
	mSize8  = obs.Default().Counter("bh.batch.group_size.5_8")
	mSize16 = obs.Default().Counter("bh.batch.group_size.9_16")
	mSizeXL = obs.Default().Counter("bh.batch.group_size.17_plus")
)

// Config tunes the scheduler. The zero value takes the defaults below.
type Config struct {
	// Window is the formation window: how long the first member of a
	// group waits for company before heading to the admission gate
	// (default 2ms). Joiners keep arriving while the group waits for a
	// slot, so under saturation the effective window is the queue wait.
	Window time.Duration
	// MaxGroup caps members per group (default 16). 1 disables grouping.
	MaxGroup int
	// Adaptive routes each query through plan.ChooseBatch over observed
	// per-segment statistics instead of always batching groupable
	// queries.
	Adaptive bool
}

// DefaultWindow and DefaultMaxGroup apply when Config leaves them zero.
const (
	DefaultWindow   = 2 * time.Millisecond
	DefaultMaxGroup = 16
)

// Gate is the admission-control surface the scheduler acquires ONE
// slot per group from (matching server.Admission). A nil gate means
// ungated execution (engine-embedded use).
type Gate interface {
	AcquireTimed(ctx context.Context) (release func(), wait time.Duration, err error)
}

// Profile carries the observed execution statistics of the submitting
// query's table, feeding the batched-vs-solo decision.
type Profile struct {
	// Segments is the table's current segment count.
	Segments int
	// SegLatency is the observed average per-segment scan wall time in
	// seconds (0 = unobserved yet).
	SegLatency float64
	// Selectivity is the observed qualifying fraction of filtered
	// segments (0 = unobserved).
	Selectivity float64
}

// RunFunc executes one formed group. It must Deliver a result or error
// to every member; anything it misses is failed by a safety net so no
// member can hang. gctx is canceled when every member has abandoned
// the group.
type RunFunc func(gctx context.Context, g *Group)

// outcome is what Deliver records for the member's submitter.
type outcome struct {
	res any
	err error
}

// Member is one query enrolled in a group.
type Member struct {
	// Ctx is the member's own context: its cancellation abandons only
	// this member, never the group (unless it was the last one).
	Ctx context.Context
	// Payload is the engine's opaque per-query state (plan, options).
	Payload any

	once sync.Once
	out  outcome
	// done is closed once out is set, waking the submitter of a grouped
	// member. It is nil on an inline solo run, whose submitter is the
	// goroutine running the runner and reads out when that returns.
	done chan struct{}
}

// Deliver hands the member its result (first delivery wins; later
// calls are no-ops, so the runner and the safety net can't race).
func (m *Member) Deliver(res any, err error) {
	m.once.Do(func() {
		m.out = outcome{res: res, err: err}
		if m.done != nil {
			close(m.done)
		}
	})
}

// Group is one formed batch.
type Group struct {
	ID    uint64
	Table string

	s       *Scheduler
	key     string
	ctx     context.Context
	cancel  context.CancelFunc
	members []*Member
	closed  bool
	live    int
	full    chan struct{}
	created time.Time
	segs    int

	// FormationWait and GateWait are set once the group is sealed, for
	// trace attribution.
	FormationWait time.Duration
	GateWait      time.Duration
}

// Members returns the sealed membership (valid inside RunFunc).
func (g *Group) Members() []*Member { return g.members }

// Size returns the sealed membership count.
func (g *Group) Size() int { return len(g.members) }

// ErrNoResult is the safety-net failure for members the runner forgot.
var ErrNoResult = errors.New("batch: group runner delivered no result")

// Scheduler forms and dispatches groups. Create with New.
type Scheduler struct {
	cfg Config
	run RunFunc

	mu      sync.Mutex
	gate    Gate
	pending map[string]*Group
	tables  map[string]*tableStats
	nextID  atomic.Uint64
	wg      sync.WaitGroup
	closed  bool
}

// New builds a scheduler dispatching groups to run. Zero Config fields
// take the package defaults.
func New(cfg Config, run RunFunc) *Scheduler {
	if cfg.Window <= 0 {
		cfg.Window = DefaultWindow
	}
	if cfg.MaxGroup <= 0 {
		cfg.MaxGroup = DefaultMaxGroup
	}
	return &Scheduler{
		cfg:     cfg,
		run:     run,
		pending: map[string]*Group{},
		tables:  map[string]*tableStats{},
	}
}

// SetGate installs the admission gate the scheduler acquires one slot
// per group from (the server wires its Admission here).
func (s *Scheduler) SetGate(g Gate) {
	s.mu.Lock()
	s.gate = g
	s.mu.Unlock()
}

// Config returns the effective (defaulted) configuration.
func (s *Scheduler) Config() Config { return s.cfg }

// Close drains: in-flight groups and inline solo runs finish, then
// Close returns. Later Submits still execute (solo, ungated) so
// shutdown never wedges a straggler query.
func (s *Scheduler) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.wg.Wait()
}

// Submit runs one query through the scheduler. key identifies its
// compatibility class ("" = ungroupable: runs solo, still through the
// gate). prof carries the observed statistics feeding the
// batched-vs-solo decision. A groupable query enrolls in a group and
// Submit blocks until the group runner delivers its result or ctx
// fires (a fired ctx abandons only this member); a solo query, and any
// query submitted after Close, runs right here on the caller.
func (s *Scheduler) Submit(ctx context.Context, table, key string, prof Profile, payload any) (any, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	mQueries.Inc()
	ts := s.tableStatsFor(table)
	ts.noteArrival(time.Now())

	groupable := key != "" && s.cfg.MaxGroup > 1
	if key == "" {
		mUngroupable.Inc()
	}
	if groupable && s.cfg.Adaptive {
		ok, _ := plan.ChooseBatch(plan.BatchInputs{
			SegLatency:    prof.SegLatency,
			Segments:      prof.Segments,
			Selectivity:   prof.Selectivity,
			ExpectedGroup: ts.expectedGroup(s.cfg.Window.Seconds(), s.cfg.MaxGroup),
			Window:        s.cfg.Window.Seconds(),
		})
		groupable = ok
	}
	if !groupable {
		mSolo.Inc()
		return s.runSolo(ctx, table, ts, payload)
	}

	m := &Member{Ctx: ctx, Payload: payload, done: make(chan struct{})}
	g := s.enroll(table, table+"\x00"+key, prof, m)
	if g == nil {
		return s.runSolo(ctx, table, ts, payload) // closed: drain the straggler inline
	}
	select {
	case <-m.done:
		return m.out.res, m.out.err
	case <-ctx.Done():
		mMemberCancel.Inc()
		s.leave(g, m)
		return nil, ctx.Err()
	}
}

// soloRun is the one allocation of an inline solo run: the group, its
// single member and the membership slice the runner sees.
type soloRun struct {
	g  Group
	m  Member
	ms [1]*Member
}

// runSolo executes a query that needs no formation on the submitting
// goroutine: acquire the gate under the query's own ctx, hand the
// runner a one-member group, release. It records what a sealed group
// of one records (groups, group_size.1, a zero formation wait, the
// gate wait) so the metrics cannot tell it from one. After Close the
// gate is skipped — a straggler is never blocked on admission — and
// the run is not waited for.
func (s *Scheduler) runSolo(ctx context.Context, table string, ts *tableStats, payload any) (any, error) {
	s.mu.Lock()
	gate := s.gate
	if s.closed {
		gate = nil
	} else {
		s.wg.Add(1)
		defer s.wg.Done()
	}
	s.mu.Unlock()

	r := &soloRun{}
	if gate != nil {
		release, wait, err := gate.AcquireTimed(ctx)
		if err != nil {
			if cerr := ctx.Err(); cerr != nil {
				mMemberCancel.Inc()
				return nil, cerr
			}
			return nil, err
		}
		defer release()
		r.g.GateWait = wait
		ts.noteGateWait(wait)
	}
	mFormWait.Observe(0)
	mGroups.Inc()
	mSize1.Inc()

	r.m.Ctx, r.m.Payload = ctx, payload
	r.ms[0] = &r.m
	r.g.ID, r.g.Table, r.g.members = s.nextID.Add(1), table, r.ms[:]
	s.run(ctx, &r.g)
	// Same safety net as a formed group: a runner that delivered
	// nothing fails the query instead of returning a nil result.
	cerr := ctx.Err()
	if cerr != nil {
		r.m.Deliver(nil, cerr)
	} else {
		r.m.Deliver(nil, ErrNoResult)
	}
	if r.m.out.err != nil && cerr != nil {
		mMemberCancel.Inc()
		return nil, cerr
	}
	return r.m.out.res, r.m.out.err
}

// enroll joins an open pending group or creates (and leads) a new one.
// It returns nil once the scheduler is closed: nothing forms while
// draining.
func (s *Scheduler) enroll(table, key string, prof Profile, m *Member) *Group {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	if g := s.pending[key]; g != nil && !g.closed {
		g.members = append(g.members, m)
		g.live++
		if len(g.members) >= s.cfg.MaxGroup {
			g.closed = true
			delete(s.pending, key)
			close(g.full)
		}
		s.mu.Unlock()
		return g
	}
	gctx, cancel := context.WithCancel(context.Background())
	g := &Group{
		ID:      s.nextID.Add(1),
		Table:   table,
		s:       s,
		key:     key,
		ctx:     gctx,
		cancel:  cancel,
		members: []*Member{m},
		live:    1,
		full:    make(chan struct{}),
		created: time.Now(),
		segs:    prof.Segments,
	}
	s.pending[key] = g
	gate := s.gate
	s.wg.Add(1)
	s.mu.Unlock()
	go g.lead(gate)
	return g
}

// leave abandons one member (its ctx fired). The last member out
// cancels the group context so formation, the gate wait and the shared
// scan all unwind promptly.
func (s *Scheduler) leave(g *Group, m *Member) {
	s.mu.Lock()
	g.live--
	lastOut := g.live <= 0
	if lastOut && !g.closed {
		g.closed = true
		delete(s.pending, g.key)
	}
	s.mu.Unlock()
	if lastOut {
		g.cancel()
	}
}

// seal closes the group to joiners and snapshots the membership.
func (s *Scheduler) seal(g *Group) []*Member {
	s.mu.Lock()
	if !g.closed {
		g.closed = true
		delete(s.pending, g.key)
	}
	members := g.members
	s.mu.Unlock()
	return members
}

// lead is the group's coordinator goroutine: wait out the formation
// window (joiners accumulate), acquire ONE admission slot for the
// whole group — the group stays open to joiners while queued, which is
// the "or when a slot frees" half of formation — then seal, run, and
// guarantee delivery.
func (g *Group) lead(gate Gate) {
	defer g.s.wg.Done()
	defer g.cancel()

	timer := time.NewTimer(g.s.cfg.Window)
	select {
	case <-timer.C:
	case <-g.full:
		timer.Stop()
	case <-g.ctx.Done():
		timer.Stop()
		g.s.seal(g)
		return // every member already abandoned the group
	}

	var release func()
	if gate != nil {
		rel, wait, err := gate.AcquireTimed(g.ctx)
		if err != nil {
			members := g.s.seal(g)
			for _, m := range members {
				if cerr := m.Ctx.Err(); cerr != nil {
					m.Deliver(nil, cerr)
				} else {
					m.Deliver(nil, err)
				}
			}
			return
		}
		release = rel
		g.GateWait = wait
		g.s.tableStatsFor(g.Table).noteGateWait(wait)
	}
	if release != nil {
		defer release()
	}

	members := g.s.seal(g)
	g.FormationWait = time.Since(g.created)
	mFormWait.Observe(g.FormationWait)
	mGroups.Inc()
	size := len(members)
	switch {
	case size <= 1:
		mSize1.Inc()
	case size <= 4:
		mSize4.Inc()
	case size <= 8:
		mSize8.Inc()
	case size <= 16:
		mSize16.Inc()
	default:
		mSizeXL.Inc()
	}
	if size >= 2 {
		mGrouped.Add(int64(size))
		mScansSaved.Add(int64((size - 1) * g.segs))
	}
	if g.ctx.Err() == nil {
		g.s.run(g.ctx, g)
	}
	// Safety net: a runner bug or a canceled group context must never
	// leave a member hanging on its channel.
	for _, m := range members {
		if cerr := m.Ctx.Err(); cerr != nil {
			m.Deliver(nil, cerr)
		} else if gerr := g.ctx.Err(); gerr != nil {
			m.Deliver(nil, gerr)
		} else {
			m.Deliver(nil, ErrNoResult)
		}
	}
}

func (s *Scheduler) tableStatsFor(table string) *tableStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	ts := s.tables[table]
	if ts == nil {
		ts = &tableStats{}
		s.tables[table] = ts
	}
	return ts
}
