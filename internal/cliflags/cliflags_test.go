package cliflags

import (
	"net"
	"sync/atomic"
	"testing"

	"wishbranch/internal/compiler"
	"wishbranch/internal/config"
	"wishbranch/internal/lab"
	"wishbranch/internal/serve"
	"wishbranch/internal/workload"
)

// TestWireFailsFastOnADeadServer: against a -server that closes every
// connection, once one run's retries end in a transport failure every
// later run fails at once, so 20 specs on two workers cost at most one
// retry ladder of connections per worker.
func TestWireFailsFastOnADeadServer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var conns atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			conns.Add(1)
			c.Close()
		}
	}()
	defer func() {
		ln.Close()
		<-done
	}()

	sched := lab.New()
	Wire(sched, &Lab{Workers: 2}, &Remote{Server: "http://" + ln.Addr().String()}, "cliflags test")
	specs := make([]lab.Spec, 20)
	for i := range specs {
		specs[i] = lab.Spec{
			Bench:      "gzip",
			Input:      workload.InputA,
			Variant:    compiler.NormalBranch,
			Machine:    config.DefaultMachine(),
			Scale:      0.01 * float64(i+1),
			Thresholds: compiler.DefaultThresholds(),
		}
	}
	sched.Warm(specs)
	for i, s := range specs {
		if _, err := sched.Result(s); err == nil {
			t.Errorf("spec %d succeeded against a server that closes every connection", i)
		}
	}
	if n, limit := conns.Load(), int64(2*(serve.DefaultRetries+1)); n > limit {
		t.Errorf("%d connection attempts for %d specs, want at most %d (one retry ladder per worker)", n, len(specs), limit)
	}
}
