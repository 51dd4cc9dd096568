// Package server is a locklint fixture standing in for the serving
// layers, where mutex regions must be deferred or straight-line and must
// never block.
package server

import (
	"sync"
	"time"
)

type counter struct {
	mu sync.Mutex
	n  int
}

// straightLine is the tolerated hand-unlocked shape: no branch can leave
// the region before the Unlock.
func (c *counter) straightLine() {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
}

// deferredUnlock may branch and return freely.
func (c *counter) deferredUnlock(limit int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.n > limit {
		return limit
	}
	return c.n
}

// earlyReturn returns out of a hand-unlocked region: one path releases
// by hand, the analyzer demands defer instead.
func (c *counter) earlyReturn(limit int) int {
	c.mu.Lock()
	if c.n > limit {
		c.mu.Unlock()
		return limit // want `early exit inside the c.mu critical section`
	}
	n := c.n
	c.mu.Unlock()
	return n
}

// lostLock never releases on this path at all.
func (c *counter) lostLock() {
	c.mu.Lock() // want `locked here but released on some other path`
	c.n++
}

// panicUnderLock can unwind without releasing.
func (c *counter) panicUnderLock() {
	c.mu.Lock()
	if c.n < 0 {
		panic("negative") // want `early exit inside the c.mu critical section`
	}
	c.mu.Unlock()
}

type rwstate struct {
	mu sync.RWMutex
	v  int
}

// readStraight pairs RLock with RUnlock: clean.
func (s *rwstate) readStraight() int {
	s.mu.RLock()
	v := s.v
	s.mu.RUnlock()
	return v
}

// readLost pairs RLock with nothing: the write Unlock does not match the
// read mode.
func (s *rwstate) readLost() int {
	s.mu.RLock() // want `locked here but released on some other path`
	v := s.v
	s.mu.Unlock()
	return v
}

// sendUnderLock blocks every other lock holder on a channel peer.
func (c *counter) sendUnderLock(out chan int) {
	c.mu.Lock()
	out <- c.n // want `channel send while c.mu is held`
	c.mu.Unlock()
}

// recvUnderDeferredLock blocks with the lock held to function exit.
func (c *counter) recvUnderDeferredLock(in chan int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n = <-in // want `channel receive while c.mu is held`
}

// selectUnderLock parks the holder until a case fires.
func (c *counter) selectUnderLock(in chan int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	select { // want `blocking select while c.mu is held`
	case v := <-in:
		c.n = v
	}
}

// nonBlockingSelect has a default case: clean.
func (c *counter) nonBlockingSelect(out chan int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	select {
	case out <- c.n:
	default:
	}
}

// sleepUnderLock serializes everyone on a timer.
func (c *counter) sleepUnderLock() {
	c.mu.Lock()
	time.Sleep(time.Millisecond) // want `time.Sleep while c.mu is held`
	c.mu.Unlock()
}

// waitUnderLock holds the mutex across a WaitGroup settle.
func (c *counter) waitUnderLock(wg *sync.WaitGroup) {
	c.mu.Lock()
	defer c.mu.Unlock()
	wg.Wait() // want `sync.WaitGroup.Wait while c.mu is held`
}

// Runner stands in for the experiments Runner: Run-prefixed methods on a
// type named Runner are whole-simulation calls.
type Runner struct{}

func (r *Runner) Run(n int) int { return n }

// simulateUnderLock runs a simulation while holding the admission lock.
func (c *counter) simulateUnderLock(r *Runner) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n = r.Run(4) // want `Runner.Run simulation while c.mu is held`
}

// lockAfterRelease is clean: the slow call happens outside the
// straight-line region.
func (c *counter) lockAfterRelease(r *Runner) {
	c.mu.Lock()
	n := c.n
	c.mu.Unlock()
	use(r.Run(n))
}

// allowedSend is a justified exception: the receiver is guaranteed ready
// in a way the analyzer cannot see.
func (c *counter) allowedSend(out chan int) {
	c.mu.Lock()
	//simcheck:allow(locklint) receiver is a buffered channel drained by the caller before Lock
	out <- c.n
	c.mu.Unlock()
}

// allowedNoReason carries the marker with no justification.
func (c *counter) allowedNoReason(out chan int) {
	c.mu.Lock()
	//simcheck:allow(locklint) // want `needs a justification`
	out <- c.n
	c.mu.Unlock()
}

func use(x int) { _ = x }
