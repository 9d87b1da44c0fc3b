// Fixtures for the lockdiscipline analyzer: no blocking work or early
// returns while a mutex is held, and no mutex copies.
package lockdiscipline

import (
	"errors"
	"sync"
	"time"
)

var errProblem = errors.New("problem")

type server struct {
	mu    sync.Mutex
	ch    chan int
	wg    sync.WaitGroup
	state int
}

func (s *server) good() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state
}

func (s *server) goodManual() {
	s.mu.Lock()
	s.state++
	s.mu.Unlock()
	s.ch <- s.state // ok: send happens after unlock
}

func (s *server) sendHeld() {
	s.mu.Lock()
	s.ch <- 1 // want "channel send while s.mu is held"
	s.mu.Unlock()
}

func (s *server) recvHeld() int {
	s.mu.Lock()
	v := <-s.ch // want "channel receive while s.mu is held"
	s.mu.Unlock()
	return v
}

func (s *server) sleepHeld() {
	s.mu.Lock()
	time.Sleep(time.Millisecond) // want "time.Sleep while s.mu is held"
	s.mu.Unlock()
}

func (s *server) waitHeld() {
	s.mu.Lock()
	s.wg.Wait() // want "WaitGroup.Wait while s.mu is held"
	s.mu.Unlock()
}

func (s *server) earlyReturn(fail bool) error {
	s.mu.Lock()
	if fail {
		return errProblem // want "return with s.mu still locked"
	}
	s.mu.Unlock()
	return nil
}

func (s *server) selectHeld() {
	s.mu.Lock()
	select { // want "select without default while s.mu is held"
	case v := <-s.ch:
		s.state = v
	}
	s.mu.Unlock()
}

func (s *server) pollHeld() {
	s.mu.Lock()
	select { // ok: default arm makes this a non-blocking poll
	case v := <-s.ch:
		s.state = v
	default:
	}
	s.mu.Unlock()
}

func (s *server) closureUnlock() error {
	s.mu.Lock()
	defer func() {
		s.state++
		s.mu.Unlock()
	}()
	if s.state > 10 {
		return errProblem // ok: the deferred closure unlocks
	}
	return nil
}

func (s *server) suppressedSend() {
	s.mu.Lock()
	//adjlint:ignore lockdiscipline buffered channel sized to capacity, cannot block
	s.ch <- 2
	s.mu.Unlock()
}

type fakeCluster struct{}

func (fakeCluster) StreamExchange(phase string) error { return nil }

func (s *server) exchangeHeld(c fakeCluster) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return c.StreamExchange("shuffle") // want "call to StreamExchange while s.mu is held"
}

func takesMutex(mu sync.Mutex) { _ = mu }

func (s *server) copyArg() {
	takesMutex(s.mu) // want "copies a sync mutex by value"
}

func (s *server) copyAssign() {
	m := s.mu // want "copies a sync mutex by value"
	_ = m
}

func (s *server) pointerOK() {
	p := &s.mu // ok: pointer, shared lock state
	p.Lock()
	p.Unlock()
}
