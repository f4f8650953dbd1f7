package shard

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"time"
)

// Cluster is an in-process loopback fleet: N workers, each behind its own
// localhost HTTP server, plus a coordinator addressing them — the test,
// selftest and benchmark harness for the shard tier (and a one-box demo
// of the real deployment, which runs the same handlers inside fftserved).
type Cluster struct {
	Workers []*Worker
	Coord   *Coordinator
	servers []*http.Server
	urls    []string
}

// StartCluster boots n loopback workers and a coordinator over them.
func StartCluster(n int, wopts WorkerOptions, copts CoordinatorOptions) (*Cluster, error) {
	cl := &Cluster{}
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			cl.Close()
			return nil, err
		}
		w := NewWorker(wopts)
		srv := &http.Server{Handler: w.Handler()}
		go srv.Serve(ln)
		cl.Workers = append(cl.Workers, w)
		cl.servers = append(cl.servers, srv)
		cl.urls = append(cl.urls, "http://"+ln.Addr().String())
	}
	copts.Nodes = cl.urls
	coord, err := NewCoordinator(copts)
	if err != nil {
		cl.Close()
		return nil, err
	}
	cl.Coord = coord
	return cl, nil
}

// URLs returns the worker base URLs.
func (cl *Cluster) URLs() []string { return cl.urls }

// Close drains the workers, then closes the servers. The drain has settled
// every job, so no request is left to finish; http.Server.Shutdown would
// instead wait up to 5 s on a connection the transport dialled but never
// used, which net/http counts as active until it is 5 s old.
func (cl *Cluster) Close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, w := range cl.Workers {
		w.Drain(ctx)
	}
	for _, srv := range cl.servers {
		srv.Close()
	}
	for _, w := range cl.Workers {
		w.Close()
	}
}

// String describes the cluster for logs.
func (cl *Cluster) String() string {
	return fmt.Sprintf("loopback cluster: %d workers", len(cl.Workers))
}
