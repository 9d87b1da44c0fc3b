// Package admission implements the serving tier's admission control: a
// priority queue (interactive before bulk), a bounded concurrency limiter,
// per-tenant byte/CPU accounting against decaying budgets, deadline-aware
// queue waits, and load-shed watermarks that drop bulk work first when the
// queue backs up.
//
// The contract mirrors what serving-scale join systems need (see
// "Processing Database Joins over a Shared-Nothing System of Multicore
// Machines": multiplex many in-flight operations over a fixed pool instead
// of dedicating the cluster to one query):
//
//   - Admit blocks until a concurrency slot frees, the context
//     cancels/expires, or the controller sheds the request.
//   - Interactive requests are granted before bulk requests, FIFO within a
//     class, so a bulk flood cannot starve the interactive trickle.
//   - A request whose context deadline cannot plausibly be met — the
//     estimated queue wait (EWMA of recent service times scaled by the
//     slots ahead) already exceeds it — is rejected immediately with
//     context.DeadlineExceeded rather than queued to die.
//   - Under pressure (queue depth or observed queue-wait latency past the
//     shed watermarks) bulk requests are refused with a typed
//     *cluster.OverloadError carrying a retry-after hint; interactive
//     requests are only refused when the queue is hard-full.
//   - Per-tenant budgets decay over Config.BudgetWindow, so a tenant that
//     burned its allowance gets it back gradually instead of at a cliff.
//
// Every rejection is errors.Is-able: cluster.ErrOverloaded for shed/full/
// budget refusals, context.DeadlineExceeded / context.Canceled for
// deadline and cancellation exits. A rejected request leaves no residue —
// no slot held, no queue entry, no goroutine.
package admission

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"adj/internal/cluster"
)

// Class is a request's scheduling class.
type Class int

const (
	// Interactive requests are latency-sensitive: granted before bulk,
	// shed only when the queue is hard-full.
	Interactive Class = iota
	// Bulk requests are throughput work: granted after interactive,
	// shed first under pressure.
	Bulk
)

// String names the class ("interactive", "bulk").
func (c Class) String() string {
	if c == Bulk {
		return "bulk"
	}
	return "interactive"
}

// Config tunes a Controller. The zero value is usable: one slot, a
// generous queue, no tenant budgets, shedding only when the queue fills.
type Config struct {
	// MaxConcurrent is the number of requests allowed in flight at once
	// (default 1). The serving tier sizes its cluster pool to this.
	MaxConcurrent int
	// MaxQueue bounds the total number of waiting requests; beyond it even
	// interactive requests are refused (default 16 × MaxConcurrent).
	MaxQueue int
	// ShedQueue is the queue depth at which bulk requests start being shed
	// (default MaxQueue/2, minimum 1).
	ShedQueue int
	// ShedLatency sheds bulk requests whenever the observed queue-wait
	// EWMA exceeds it (0 disables the latency watermark).
	ShedLatency time.Duration
	// TenantBytes caps a tenant's decayed shuffle-byte consumption; a
	// tenant over budget is refused until the account decays (0 = no cap).
	TenantBytes int64
	// TenantCPUSeconds caps a tenant's decayed CPU-seconds the same way
	// (0 = no cap).
	TenantCPUSeconds float64
	// BudgetWindow is the half-life of tenant accounts: consumption
	// recorded one window ago counts half (default 1 minute).
	BudgetWindow time.Duration
	// Clock overrides time.Now for tests.
	Clock func() time.Time
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 1
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 16 * c.MaxConcurrent
	}
	if c.ShedQueue <= 0 {
		c.ShedQueue = c.MaxQueue / 2
	}
	if c.ShedQueue < 1 {
		c.ShedQueue = 1
	}
	if c.BudgetWindow <= 0 {
		c.BudgetWindow = time.Minute
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	return c
}

// Request describes one admission attempt.
type Request struct {
	// Class is the scheduling class (zero value: Interactive).
	Class Class
	// Tenant is the budget account to charge ("" = unaccounted).
	Tenant string
}

// Usage is what an execution consumed, charged to its tenant at Release.
type Usage struct {
	// Bytes is the execution's shuffle volume.
	Bytes int64
	// CPUSeconds is the execution's measured worker compute time (no
	// modeled network time).
	CPUSeconds float64
}

// Ticket is a granted admission: exactly one concurrency slot, held until
// Release. Release must be called exactly once.
type Ticket struct {
	c       *Controller
	class   Class
	tenant  string
	granted time.Time
	queued  time.Duration
	once    sync.Once
}

// Class returns the ticket's scheduling class.
func (t *Ticket) Class() Class { return t.class }

// QueueSeconds is how long the request waited for its slot.
func (t *Ticket) QueueSeconds() float64 { return t.queued.Seconds() }

// Release returns the ticket's slot, charges the tenant account with the
// execution's usage, and folds the service time into the controller's
// estimate. Safe to call once per ticket; extra calls are no-ops.
func (t *Ticket) Release(u Usage) {
	t.once.Do(func() { t.c.release(t, u) })
}

// waiter is one queued request.
type waiter struct {
	class   Class
	ready   chan struct{} // closed on grant
	granted bool          // set (under mu) when the slot was handed over
	at      time.Time     // enqueue time
}

// Controller is the admission gate. All methods are safe for concurrent
// use.
type Controller struct {
	cfg Config

	mu       sync.Mutex
	inflight int
	queues   [2][]*waiter // [Interactive], [Bulk]; FIFO within each

	// EWMA estimates, seconds. serviceEWMA tracks Release−grant (how long
	// a slot stays busy), waitEWMA the observed queue waits (the latency
	// shed watermark's signal).
	serviceEWMA float64
	waitEWMA    float64

	admitted int64
	shed     int64
	rejected int64 // deadline-infeasible + cancelled-in-queue + budget refusals

	tenants map[string]*tenantAccount
}

// tenantAccount is a decaying consumption record.
type tenantAccount struct {
	bytes float64
	cpu   float64
	last  time.Time
}

// NewController builds a controller from cfg (zero fields take defaults).
func NewController(cfg Config) *Controller {
	return &Controller{
		cfg:     cfg.withDefaults(),
		tenants: make(map[string]*tenantAccount),
	}
}

// MaxConcurrent reports the configured concurrency limit after defaulting
// — the serving tier sizes its resident cluster pool to match.
func (c *Controller) MaxConcurrent() int { return c.cfg.MaxConcurrent }

// ewmaAlpha weights recent observations; ~86% of the estimate comes from
// the last 12 observations.
const ewmaAlpha = 0.15

// Admit asks for a slot. It returns a Ticket when granted, or a typed
// error: *cluster.OverloadError (errors.Is cluster.ErrOverloaded) when the
// request is shed, a context error when ctx cancels or expires while
// queued, and context.DeadlineExceeded immediately when the deadline
// cannot plausibly be met.
func (c *Controller) Admit(ctx context.Context, req Request) (*Ticket, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	c.mu.Lock()
	now := c.cfg.Clock()

	// Tenant budgets first: a tenant over its decayed allowance is refused
	// regardless of load, so one account cannot monopolize the pool.
	if reason, wait := c.overBudgetLocked(req.Tenant, now); reason != "" {
		c.rejected++
		depth := c.depthLocked()
		c.mu.Unlock()
		return nil, &cluster.OverloadError{Reason: reason, QueueDepth: depth, RetryAfter: wait}
	}

	// Shed watermarks. Bulk goes first: at ShedQueue depth or when queue
	// waits are already blowing the latency watermark. Interactive is only
	// refused when the queue is hard-full.
	depth := c.depthLocked()
	if depth >= c.cfg.MaxQueue {
		c.shed++
		retry := c.retryAfterLocked(depth)
		c.mu.Unlock()
		return nil, &cluster.OverloadError{Reason: "queue full", QueueDepth: depth, RetryAfter: retry}
	}
	if req.Class == Bulk && (depth >= c.cfg.ShedQueue ||
		(c.cfg.ShedLatency > 0 && c.waitEWMA > c.cfg.ShedLatency.Seconds())) {
		c.shed++
		retry := c.retryAfterLocked(depth)
		c.mu.Unlock()
		return nil, &cluster.OverloadError{Reason: "bulk shed", QueueDepth: depth, RetryAfter: retry}
	}

	// Deadline feasibility: if the estimated wait for this request's place
	// in line already exceeds the context deadline, fail now — queuing it
	// would hold a queue slot only to expire.
	// (time.Until, not Config.Clock: context deadlines are wall-clock even
	// when tests fake the controller's clock.)
	if dl, ok := ctx.Deadline(); ok {
		eta := c.estimateWaitLocked(req.Class)
		if eta > 0 && time.Until(dl) < eta {
			c.rejected++
			c.mu.Unlock()
			return nil, fmt.Errorf("admission: estimated queue wait %v exceeds deadline: %w",
				eta.Round(time.Millisecond), context.DeadlineExceeded)
		}
	}

	// Fast path: free slot and nobody ahead.
	if c.inflight < c.cfg.MaxConcurrent && c.depthLocked() == 0 {
		c.inflight++
		c.admitted++
		c.observeWaitLocked(0)
		c.mu.Unlock()
		return &Ticket{c: c, class: req.Class, tenant: req.Tenant, granted: now}, nil
	}

	// Queue and wait for a grant, the context, or whichever comes first.
	w := &waiter{class: req.Class, ready: make(chan struct{}), at: now}
	c.queues[req.Class] = append(c.queues[req.Class], w)
	c.mu.Unlock()

	select {
	case <-w.ready:
		c.mu.Lock()
		granted := c.cfg.Clock()
		queued := granted.Sub(w.at)
		c.admitted++
		c.observeWaitLocked(queued.Seconds())
		c.mu.Unlock()
		return &Ticket{c: c, class: req.Class, tenant: req.Tenant, granted: granted, queued: queued}, nil
	case <-ctx.Done():
		c.mu.Lock()
		if w.granted {
			// Lost the race: the slot was handed to us as the context
			// fired. Hand it on rather than strand it.
			c.inflight--
			c.grantNextLocked()
		} else {
			c.removeWaiterLocked(w)
		}
		c.rejected++
		c.mu.Unlock()
		return nil, ctx.Err()
	}
}

// release returns a ticket's slot and charges its tenant.
func (c *Controller) release(t *Ticket, u Usage) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.Clock()
	service := now.Sub(t.granted).Seconds()
	if c.serviceEWMA == 0 {
		c.serviceEWMA = service
	} else {
		c.serviceEWMA += ewmaAlpha * (service - c.serviceEWMA)
	}
	if t.tenant != "" && (u.Bytes != 0 || u.CPUSeconds != 0) {
		acct := c.tenants[t.tenant]
		if acct == nil {
			acct = &tenantAccount{last: now}
			c.tenants[t.tenant] = acct
		}
		c.decayLocked(acct, now)
		acct.bytes += float64(u.Bytes)
		acct.cpu += u.CPUSeconds
	}
	c.inflight--
	c.grantNextLocked()
}

// grantNextLocked hands a free slot to the longest-waiting interactive
// request, else the longest-waiting bulk request.
func (c *Controller) grantNextLocked() {
	if c.inflight >= c.cfg.MaxConcurrent {
		return
	}
	for class := range c.queues {
		if len(c.queues[class]) > 0 {
			w := c.queues[class][0]
			c.queues[class] = c.queues[class][1:]
			w.granted = true
			c.inflight++
			close(w.ready)
			return
		}
	}
}

func (c *Controller) removeWaiterLocked(w *waiter) {
	q := c.queues[w.class]
	for i, cand := range q {
		if cand == w {
			c.queues[w.class] = append(q[:i], q[i+1:]...)
			return
		}
	}
}

func (c *Controller) depthLocked() int {
	return len(c.queues[Interactive]) + len(c.queues[Bulk])
}

// estimateWaitLocked predicts how long a new request of class would queue:
// the requests scheduled ahead of it (all in-flight, everything queued for
// interactive+bulk if bulk, interactive only if interactive) divided by
// the drain rate MaxConcurrent, scaled by the service-time EWMA. Zero when
// no history exists — never reject on a guess.
func (c *Controller) estimateWaitLocked(class Class) time.Duration {
	if c.serviceEWMA == 0 {
		return 0
	}
	ahead := c.inflight + len(c.queues[Interactive])
	if class == Bulk {
		ahead += len(c.queues[Bulk])
	}
	if c.inflight < c.cfg.MaxConcurrent {
		// Free slots absorb that many of the requests ahead immediately.
		ahead -= c.cfg.MaxConcurrent - c.inflight
		if ahead < 0 {
			ahead = 0
		}
	}
	secs := c.serviceEWMA * float64(ahead) / float64(c.cfg.MaxConcurrent)
	return time.Duration(secs * float64(time.Second))
}

// retryAfterLocked sizes the hint on a shed: the time for the current
// queue to drain at the observed service rate, floored at 10ms so clients
// never busy-spin on a cold estimate. Caller holds c.mu.
func (c *Controller) retryAfterLocked(depth int) time.Duration {
	const floor = 10 * time.Millisecond
	if c.serviceEWMA == 0 {
		return floor
	}
	secs := c.serviceEWMA * float64(depth+1) / float64(c.cfg.MaxConcurrent)
	d := time.Duration(secs * float64(time.Second))
	if d < floor {
		d = floor
	}
	return d
}

func (c *Controller) observeWaitLocked(seconds float64) {
	c.waitEWMA += ewmaAlpha * (seconds - c.waitEWMA)
}

// decayLocked applies the half-life decay to a tenant account.
func (c *Controller) decayLocked(acct *tenantAccount, now time.Time) {
	elapsed := now.Sub(acct.last)
	if elapsed > 0 {
		f := math.Pow(0.5, elapsed.Seconds()/c.cfg.BudgetWindow.Seconds())
		acct.bytes *= f
		acct.cpu *= f
	}
	acct.last = now
}

// overBudgetLocked reports whether tenant is over either budget after
// decay, with the wait for the account to halve as the retry hint.
func (c *Controller) overBudgetLocked(tenant string, now time.Time) (string, time.Duration) {
	if tenant == "" || (c.cfg.TenantBytes <= 0 && c.cfg.TenantCPUSeconds <= 0) {
		return "", 0
	}
	acct := c.tenants[tenant]
	if acct == nil {
		return "", 0
	}
	c.decayLocked(acct, now)
	if c.cfg.TenantBytes > 0 && acct.bytes > float64(c.cfg.TenantBytes) {
		return "tenant bytes budget", c.cfg.BudgetWindow / 2
	}
	if c.cfg.TenantCPUSeconds > 0 && acct.cpu > c.cfg.TenantCPUSeconds {
		return "tenant cpu budget", c.cfg.BudgetWindow / 2
	}
	return "", 0
}

// TenantStats is one tenant's decayed consumption.
type TenantStats struct {
	// Bytes is the decayed shuffle-byte consumption.
	Bytes int64
	// CPUSeconds is the decayed CPU-second consumption.
	CPUSeconds float64
}

// Stats is a controller snapshot.
type Stats struct {
	// Depth is the current queue depth (both classes).
	Depth int
	// InFlight is the number of slots currently held.
	InFlight int
	// Admitted counts granted requests.
	Admitted int64
	// Shed counts overload refusals (queue full, bulk shed).
	Shed int64
	// Rejected counts non-overload refusals: deadline-infeasible, budget
	// refusals, and requests whose context fired while queued.
	Rejected int64
	// QueueWaitSeconds is the queue-wait EWMA the latency watermark reads.
	QueueWaitSeconds float64
	// ServiceSeconds is the service-time EWMA behind deadline estimates
	// and retry-after hints.
	ServiceSeconds float64
	// Tenants maps tenant → decayed consumption (accounted tenants only).
	Tenants map[string]TenantStats
}

// Stats snapshots the controller.
func (c *Controller) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.Clock()
	st := Stats{
		Depth:            c.depthLocked(),
		InFlight:         c.inflight,
		Admitted:         c.admitted,
		Shed:             c.shed,
		Rejected:         c.rejected,
		QueueWaitSeconds: c.waitEWMA,
		ServiceSeconds:   c.serviceEWMA,
		Tenants:          make(map[string]TenantStats, len(c.tenants)),
	}
	for name, acct := range c.tenants {
		c.decayLocked(acct, now)
		st.Tenants[name] = TenantStats{Bytes: int64(acct.bytes), CPUSeconds: acct.cpu}
	}
	return st
}
