// Package admit is the load-shedding admission controller of the serving
// stack: a weighted semaphore with a bounded FIFO wait queue and a queue-wait
// deadline. A search acquires weight proportional to its cost (one unit per
// batch member) before touching the index; when the server is
// saturated the request waits in line, and when the line is full — or the
// wait exceeds the configured bound — the request is shed immediately with a
// typed error the HTTP layer maps to 429 + Retry-After. Shedding early keeps
// accepted-request latency bounded instead of letting an overload collapse
// every in-flight query at once.
package admit

import (
	"container/list"
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"topk/internal/telemetry"
)

// ErrQueueFull is returned by Acquire when the wait queue is at capacity:
// the server is saturated and the backlog is already as long as the operator
// allows. The request was shed without waiting.
var ErrQueueFull = errors.New("admit: queue full")

// ErrWaitTimeout is returned by Acquire when a queued request waited longer
// than the configured queue-wait bound without a slot freeing up.
var ErrWaitTimeout = errors.New("admit: queue wait timed out")

// waitBuckets spans 100µs..~1.6s in ×2 steps — queue waits beyond the last
// bound land in +Inf, which an operator should read as "shedding imminent".
var waitBuckets = telemetry.ExpBuckets(100e-6, 2, 15)

// Controller is a weighted semaphore with a bounded FIFO wait queue.
// The zero value is not usable; construct with New. A nil *Controller is a
// no-op that admits everything — callers can thread it unconditionally.
type Controller struct {
	capacity int64
	maxQueue int
	maxWait  time.Duration

	mu    sync.Mutex
	inUse int64
	queue *list.List // of *waiter, FIFO

	admitted      atomic.Uint64
	shedQueueFull atomic.Uint64
	shedTimeout   atomic.Uint64
	shedCanceled  atomic.Uint64
	wait          *telemetry.Histogram // queue wait of admitted requests, seconds
}

type waiter struct {
	weight int64
	ready  chan struct{} // closed under mu when the waiter is granted
}

// New creates a controller admitting at most capacity units of concurrent
// work, queueing at most maxQueue further requests, each waiting at most
// maxWait (0 = wait as long as the request's own context allows).
// capacity must be ≥ 1; maxQueue < 0 is treated as 0 (never queue).
func New(capacity int64, maxQueue int, maxWait time.Duration) *Controller {
	if capacity < 1 {
		capacity = 1
	}
	if maxQueue < 0 {
		maxQueue = 0
	}
	return &Controller{
		capacity: capacity,
		maxQueue: maxQueue,
		maxWait:  maxWait,
		queue:    list.New(),
		wait:     telemetry.NewHistogram(waitBuckets),
	}
}

// NewWeighted carves a per-tenant controller out of a shared one: the new
// controller's capacity is the given fraction of parent's capacity (minimum
// 1 unit), its queue bound the usual four waiters per slot. A tenant that
// acquires its own carve FIRST and the shared controller second can never
// occupy more than its share of the shared capacity concurrently, so one
// flooded tenant leaves the remaining fraction free for everyone else —
// its excess queues and sheds at its own carve instead of filling the
// shared queue. weight outside (0, 1] means an unthrottled tenant (full
// parent capacity); a nil parent (admission disabled) yields a nil carve.
func NewWeighted(parent *Controller, weight float64, maxWait time.Duration) *Controller {
	if parent == nil {
		return nil
	}
	if weight <= 0 || weight > 1 {
		weight = 1
	}
	capacity := int64(weight * float64(parent.Capacity()))
	if capacity < 1 {
		capacity = 1
	}
	return New(capacity, 4*int(capacity), maxWait)
}

// Acquire admits weight units of work, blocking in FIFO order while the
// controller is saturated. It returns a release function that must be called
// exactly once when the work finishes (calling it again is a no-op). weight
// is clamped to [1, capacity] so an oversized batch degrades to exclusive
// admission instead of deadlocking. On shed or cancellation it returns a nil
// release and one of ErrQueueFull, ErrWaitTimeout, or ctx.Err().
// A nil Controller admits immediately.
func (c *Controller) Acquire(ctx context.Context, weight int64) (release func(), err error) {
	if c == nil {
		return func() {}, nil
	}
	if weight < 1 {
		weight = 1
	}
	if weight > c.capacity {
		weight = c.capacity
	}
	c.mu.Lock()
	// Fast path: capacity available and nobody queued ahead of us.
	if c.inUse+weight <= c.capacity && c.queue.Len() == 0 {
		c.inUse += weight
		c.mu.Unlock()
		c.admitted.Add(1)
		c.wait.Observe(0)
		return c.releaseOnce(weight), nil
	}
	if c.queue.Len() >= c.maxQueue {
		c.mu.Unlock()
		c.shedQueueFull.Add(1)
		return nil, ErrQueueFull
	}
	w := &waiter{weight: weight, ready: make(chan struct{})}
	elem := c.queue.PushBack(w)
	c.mu.Unlock()

	start := time.Now()
	var timeout <-chan time.Time
	if c.maxWait > 0 {
		t := time.NewTimer(c.maxWait)
		defer t.Stop()
		timeout = t.C
	}
	select {
	case <-w.ready:
		c.admitted.Add(1)
		c.wait.Observe(time.Since(start).Seconds())
		return c.releaseOnce(weight), nil
	case <-ctx.Done():
		if c.abandon(elem, w) {
			c.shedCanceled.Add(1)
			return nil, ctx.Err()
		}
		// Granted concurrently with cancellation: the request is dead either
		// way, so hand the slot straight back and report the cancellation.
		c.release(weight)
		c.shedCanceled.Add(1)
		return nil, ctx.Err()
	case <-timeout:
		if c.abandon(elem, w) {
			c.shedTimeout.Add(1)
			return nil, ErrWaitTimeout
		}
		c.release(weight)
		c.shedTimeout.Add(1)
		return nil, ErrWaitTimeout
	}
}

// abandon removes a still-queued waiter; it reports false when the waiter
// was granted first (the slot is then owned by the caller).
func (c *Controller) abandon(elem *list.Element, w *waiter) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	select {
	case <-w.ready:
		return false
	default:
	}
	c.queue.Remove(elem)
	return true
}

// release returns weight units and grants queued waiters in FIFO order for
// as long as capacity allows. Strict FIFO: a large waiter at the head blocks
// smaller ones behind it — no starvation of expensive batches.
func (c *Controller) release(weight int64) {
	c.mu.Lock()
	c.inUse -= weight
	for e := c.queue.Front(); e != nil; {
		w := e.Value.(*waiter)
		if c.inUse+w.weight > c.capacity {
			break
		}
		next := e.Next()
		c.queue.Remove(e)
		c.inUse += w.weight
		close(w.ready)
		e = next
	}
	c.mu.Unlock()
}

func (c *Controller) releaseOnce(weight int64) func() {
	var once sync.Once
	return func() { once.Do(func() { c.release(weight) }) }
}

// QueueDepth returns the number of requests currently waiting.
func (c *Controller) QueueDepth() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.queue.Len()
}

// InUse returns the weight currently admitted.
func (c *Controller) InUse() int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.inUse
}

// Capacity returns the configured concurrency bound (0 for a nil controller).
func (c *Controller) Capacity() int64 {
	if c == nil {
		return 0
	}
	return c.capacity
}

// Stats is a point-in-time view of the controller for /stats and /metrics.
type Stats struct {
	Capacity      int64                       `json:"capacity"`
	InUse         int64                       `json:"inUse"`
	QueueDepth    int                         `json:"queueDepth"`
	MaxQueue      int                         `json:"maxQueue"`
	Admitted      uint64                      `json:"admitted"`
	ShedQueueFull uint64                      `json:"shedQueueFull"`
	ShedTimeout   uint64                      `json:"shedTimeout"`
	ShedCanceled  uint64                      `json:"shedCanceled"`
	Wait          telemetry.HistogramSnapshot `json:"wait"`
}

// Stats snapshots the controller; the zero Stats for a nil controller.
func (c *Controller) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	inUse, depth := c.inUse, c.queue.Len()
	c.mu.Unlock()
	return Stats{
		Capacity:      c.capacity,
		InUse:         inUse,
		QueueDepth:    depth,
		MaxQueue:      c.maxQueue,
		Admitted:      c.admitted.Load(),
		ShedQueueFull: c.shedQueueFull.Load(),
		ShedTimeout:   c.shedTimeout.Load(),
		ShedCanceled:  c.shedCanceled.Load(),
		Wait:          c.wait.Snapshot(),
	}
}
