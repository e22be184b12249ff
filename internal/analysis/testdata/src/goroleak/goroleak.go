// Package goroleak exercises the goroleak analyzer: fire-and-forget
// goroutines are flagged; context-, WaitGroup- and channel-supervised
// ones (including through a same-package callee's body) are not.
package goroleak

import (
	"context"
	"net"
	"net/http"
	"sync"
)

func bad() {
	go leak() // want `goroutine is not tied to a context, WaitGroup, or supervising channel`
}

func badLiteral() {
	go func() { // want `goroutine is not tied to a context, WaitGroup, or supervising channel`
		println("orphan")
	}()
}

// badOtherPackage: Serve's body is not in this package, so nothing shows
// an owner.
func badOtherPackage(srv *http.Server, ln net.Listener) {
	go srv.Serve(ln) // want `goroutine is not tied to a context, WaitGroup, or supervising channel`
}

func leak() {}

func goodCtxArg(ctx context.Context) {
	go worker(ctx)
}

func worker(ctx context.Context) {
	<-ctx.Done()
}

func goodCtxCapture(ctx context.Context) {
	go func() {
		<-ctx.Done()
	}()
}

func goodWaitGroup(wg *sync.WaitGroup) {
	wg.Add(1)
	go func() {
		defer wg.Done()
	}()
}

func goodDoneChannel() {
	done := make(chan struct{})
	go func() {
		defer close(done)
	}()
	<-done
}

func goodResultChannel() {
	errc := make(chan error, 1)
	go func() {
		errc <- nil
	}()
	<-errc
}

var wg sync.WaitGroup

// owned registers with the package WaitGroup its spawner waits on.
func owned() {
	defer wg.Done()
}

// goodNamedCallee is owned through owned's body, which the go statement
// does not show.
func goodNamedCallee() {
	wg.Add(1)
	go owned()
	wg.Wait()
}

type pool struct {
	wg sync.WaitGroup
}

func (p *pool) run() {
	defer p.wg.Done()
}

// start is owned through p.run's body, which registers with the pool's
// WaitGroup.
func (p *pool) start() {
	p.wg.Add(1)
	go p.run()
}
