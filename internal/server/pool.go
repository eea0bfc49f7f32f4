package server

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// pool is the daemon's bounded job pool — the serving-side counterpart
// of par.Map's bounded fan-out. Where par.Map bounds the goroutines
// of one finite grid, the pool bounds concurrently running simulations
// across an unbounded request stream: at most workers jobs execute at
// once, excess jobs queue on the semaphore in submission order
// (approximately — Go's channel wakeups are not strictly FIFO, and the
// jobs are independent deterministic cells, so order carries no
// meaning, exactly as in par.Map).
type pool struct {
	sem      chan struct{}
	maxQueue int64
	wg       sync.WaitGroup
	queued   atomic.Int64
	running  atomic.Int64
}

// newPool sizes the pool; workers <= 0 selects GOMAXPROCS, mirroring
// par.Map's convention. maxQueue bounds the admission queue consulted by
// hasRoom (<= 0 selects the default of 64 waiting jobs).
func newPool(workers, maxQueue int) *pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if maxQueue <= 0 {
		maxQueue = 64
	}
	return &pool{sem: make(chan struct{}, workers), maxQueue: int64(maxQueue)}
}

// hasRoom reports whether the admission queue can take another job.
// The check is advisory — two concurrent admissions can both observe
// room and overshoot the bound by one — which is fine: the bound sheds
// load at the right order of magnitude, it is not a hard resource cap.
// Internal submissions (journal replay) bypass it via Go directly: a
// job the daemon already promised durability for is never shed.
func (p *pool) hasRoom() bool { return p.queued.Load() < p.maxQueue }

// Go enqueues fn and returns immediately. The job runs detached from
// any request context: once a simulation is admitted it always runs to
// completion and publishes its (deterministic, hence always valid)
// result, so a client disconnect can never leave the result cache
// holding a half-computed entry.
func (p *pool) Go(fn func()) {
	p.wg.Add(1)
	p.queued.Add(1)
	go func() {
		defer p.wg.Done()
		p.sem <- struct{}{}
		p.queued.Add(-1)
		p.running.Add(1)
		defer func() {
			p.running.Add(-1)
			<-p.sem
		}()
		fn()
	}()
}

// capacity reports the maximum number of concurrently running jobs.
func (p *pool) capacity() int { return cap(p.sem) }

// Drain blocks until every submitted job has finished or ctx expires —
// the graceful-shutdown path: drowsyd stops accepting connections,
// then drains in-flight work before exiting.
func (p *pool) Drain(ctx context.Context) error {
	done := make(chan struct{})
	go func() {
		p.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
