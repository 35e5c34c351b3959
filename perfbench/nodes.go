package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"maskfrac/internal/cluster"
	"maskfrac/internal/fracserve"
)

// nprocWorkers is the worker and connection bound of every workload:
// the load comes from one process using at most nproc threads.
func nprocWorkers() int { return runtime.NumCPU() }

// fleet is three in-process fracd nodes behind one cluster client,
// talking HTTP over loopback.
type fleet struct {
	method    string
	servers   []*fracserve.Server
	serveWg   sync.WaitGroup
	transport *http.Transport
	client    *cluster.Client
	ids, urls []string
}

// startFleet starts three nodes with the given solver worker count and
// a cluster client for method. The client keeps at most nproc
// connections per node and never hedges, so every request is one
// attempt unless a node fails.
func startFleet(workers int, method string, wantShots bool) (*fleet, error) {
	f := &fleet{method: method, transport: &http.Transport{MaxIdleConnsPerHost: nprocWorkers(), MaxConnsPerHost: nprocWorkers()}}
	f.client = f.newClient(wantShots)
	for i := 0; i < 3; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			f.close()
			return nil, fmt.Errorf("listen: %w", err)
		}
		srv := fracserve.New(fracserve.Config{Workers: workers})
		f.servers = append(f.servers, srv)
		f.serveWg.Add(1)
		go func() {
			defer f.serveWg.Done()
			_ = srv.Serve(l) // returns http.ErrServerClosed once close shuts it down
		}()
		f.ids = append(f.ids, fmt.Sprintf("node-%c", 'a'+i))
		f.urls = append(f.urls, "http://"+l.Addr().String())
		f.client.AddNode(f.ids[i], f.urls[i])
	}
	return f, nil
}

// newClient returns another cluster client over the same nodes and
// connection pool, with the given shot-payload setting.
func (f *fleet) newClient(wantShots bool) *cluster.Client {
	c := cluster.NewClient(cluster.Config{
		Method:      f.method,
		WantShots:   wantShots,
		MaxInflight: nprocWorkers(),
		HTTPClient:  &http.Client{Transport: f.transport},
	})
	for i, id := range f.ids {
		c.AddNode(id, f.urls[i])
	}
	return c
}

// close drains every node and waits for their serve loops to return.
func (f *fleet) close() {
	f.transport.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, s := range f.servers {
		if err := s.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Println("perfbench: node shutdown:", err)
		}
	}
	f.serveWg.Wait()
}

// nodeCounters are summed node /stats values plus the client's routing
// counters; deltas of two snapshots give a phase's figures.
type nodeCounters struct {
	hits, misses, evictions, coalesced, rejected, timeouts float64
	retries, hedges, failovers, dedups                     float64
	perNode                                                map[string]uint64
}

func (f *fleet) counters(ctx context.Context) (nodeCounters, error) {
	var c nodeCounters
	for _, id := range f.ids {
		st, err := f.client.NodeStats(ctx, id)
		if err != nil {
			return c, fmt.Errorf("stats of %s: %w", id, err)
		}
		c.hits += float64(st.Cache.Hits)
		c.misses += float64(st.Cache.Misses)
		c.evictions += float64(st.Cache.Evictions)
		c.coalesced += float64(st.Cache.Coalesced)
		c.rejected += float64(st.Rejected)
		c.timeouts += float64(st.Timeouts)
	}
	c.retries, c.hedges, c.failovers, c.dedups = f.client.CounterValues()
	c.perNode = f.client.NodeRequestCounts()
	return c, nil
}

// layerDeltas writes the node and routing counter deltas between two
// snapshots into the per-layer metrics.
func layerDeltas(before, after nodeCounters, into map[string]float64) {
	hits, misses := after.hits-before.hits, after.misses-before.misses
	into["shapecache.hit_ratio"] = ratio(hits, hits+misses)
	into["shapecache.evictions"] = after.evictions - before.evictions
	into["shapecache.coalesced"] = after.coalesced - before.coalesced
	into["fracserve.rejected"] = after.rejected - before.rejected
	into["fracserve.timeouts"] = after.timeouts - before.timeouts
	into["cluster.retries"] = after.retries - before.retries
	into["cluster.hedges"] = after.hedges - before.hedges
	into["cluster.failovers"] = after.failovers - before.failovers
	into["cluster.dedups"] = after.dedups - before.dedups
	var maxReq, sum float64
	for id, n := range after.perNode {
		d := float64(n - before.perNode[id])
		sum += d
		maxReq = max(maxReq, d)
	}
	if sum > 0 {
		into["cluster.node_skew"] = maxReq / (sum / float64(len(after.perNode)))
	}
}
