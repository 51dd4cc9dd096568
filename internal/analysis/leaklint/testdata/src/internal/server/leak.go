// Package server is a leaklint fixture standing in for the concurrent
// serving layers, where every goroutine needs a provable shutdown path.
package server

import (
	"context"
	"sync"
)

// leakyWorker launches a goroutine with no shutdown construct at all.
func leakyWorker() {
	go func() { // want `goroutine has no provable shutdown path`
		for {
			work()
		}
	}()
}

// namedBody launches a named function: nothing about its shutdown is
// provable at the launch site.
func namedBody() {
	go work() // want `goroutine body is a named function`
}

// ctxGuarded selects on ctx.Done: clean.
func ctxGuarded(ctx context.Context, jobs chan int) {
	go func() {
		for {
			select {
			case <-ctx.Done():
				return
			case j := <-jobs:
				use(j)
			}
		}
	}()
}

// doneChan receives from a done-named channel: clean.
func doneChan(done chan struct{}) {
	go func() {
		<-done
	}()
}

// waitGroupPaired carries the classic Add/Done pairing: clean.
func waitGroupPaired(wg *sync.WaitGroup) {
	wg.Add(1)
	go func() {
		defer wg.Done()
		work()
	}()
}

// closerWait ends when the bounded group drains: clean.
func closerWait(wg *sync.WaitGroup, out chan int) {
	go func() {
		wg.Wait()
		close(out)
	}()
}

// rangeWorker drains a closable channel: clean.
func rangeWorker(jobs chan int) {
	go func() {
		for j := range jobs {
			use(j)
		}
	}()
}

// capturedWrite assigns a captured local with no lock in the body.
func capturedWrite(ctx context.Context) int {
	total := 0
	go func() {
		<-ctx.Done()
		total = 7 // want `writes captured local "total" without synchronization`
	}()
	return total
}

// capturedIncrement races the same way.
func capturedIncrement(ctx context.Context) int {
	n := 0
	go func() {
		<-ctx.Done()
		n++ // want `writes captured local "n" without synchronization`
	}()
	return n
}

// guardedWrite holds a lock around the captured write: clean.
func guardedWrite(ctx context.Context, mu *sync.Mutex) int {
	total := 0
	go func() {
		<-ctx.Done()
		mu.Lock()
		total = 7
		mu.Unlock()
	}()
	return total
}

// localWrite assigns a variable declared inside the goroutine: clean.
func localWrite(ctx context.Context) {
	go func() {
		<-ctx.Done()
		n := 0
		n = n + 1
		use(n)
	}()
}

// allowedLeak is a justified exception: the goroutine ends when the
// listener closes, which the analyzer cannot see.
func allowedLeak() {
	//simcheck:allow(leaklint) serve loop exits when the listener is closed by shutdown
	go func() {
		for {
			work()
		}
	}()
}

// allowedNoReason carries the marker but no justification, which is its
// own diagnostic.
func allowedNoReason() {
	//simcheck:allow(leaklint) // want `needs a justification`
	go func() {
		for {
			work()
		}
	}()
}

func work()     {}
func use(x int) { _ = x }
