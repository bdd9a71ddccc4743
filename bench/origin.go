package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"aide/internal/simclock"
	"aide/internal/websim"
)

// origin is the web snapshotd fetches from: websim.Web.Handler on one
// loopback listener per simulated host, wrapped so that everything the
// tracker workload measures (checks per second, time from a change to
// its fetch) is observed here and not asked of the server under test.
type origin struct {
	web   *websim.Web
	ports []int
	srvs  []*http.Server
	inner http.Handler
	t0    time.Time

	// serve guards page content: a change takes it exclusively, so a
	// response is always attributed to the version it actually carried.
	serve sync.RWMutex

	mu      sync.Mutex
	version map[string]int       // path key → current page version
	pending map[string]time.Time // path key → when the unfetched change was made
	checkAt []time.Duration      // HEAD+GET of tracked pages, offset from t0
	lagAt   []time.Duration      // when each change was fetched, and
	lag     []time.Duration      // how long after it was made
	// onGet, when set, is told which version a GET of a tracked page
	// was served (called with serve held for reading).
	onGet func(key string, version int)
}

// startOrigin listens on n fixed loopback ports starting at basePort.
func startOrigin(basePort, n int) (*origin, error) {
	o := &origin{
		web:     websim.New(simclock.New(time.Time{})),
		t0:      time.Now(),
		version: map[string]int{},
		pending: map[string]time.Time{},
	}
	o.inner = o.web.Handler()
	next := basePort
	for i := 0; i < n; i++ {
		port, err := freePort(next)
		if err != nil {
			o.stop()
			return nil, err
		}
		ln, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", port))
		if err != nil {
			o.stop()
			return nil, err
		}
		srv := &http.Server{Handler: http.HandlerFunc(o.handle)}
		go srv.Serve(ln)
		o.srvs = append(o.srvs, srv)
		o.ports = append(o.ports, port)
		next = port + 1
	}
	return o, nil
}

func (o *origin) stop() {
	for _, s := range o.srvs {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		s.Shutdown(ctx)
		cancel()
		s.Close()
	}
}

// set installs version v of a page. The simulated clock moves a minute
// per change, so Last-Modified advances by whole seconds and the
// tracker's date comparison sees every change.
func (o *origin) set(site, path string, v int, body string, track bool) {
	key := "/" + site + path
	o.serve.Lock()
	o.web.Clock().Advance(time.Minute)
	o.web.Site(site).Page(path).Set(body)
	o.mu.Lock()
	o.version[key] = v
	if track {
		if _, waiting := o.pending[key]; !waiting {
			o.pending[key] = time.Now()
		}
	}
	o.mu.Unlock()
	o.serve.Unlock()
}

func (o *origin) handle(w http.ResponseWriter, r *http.Request) {
	o.serve.RLock()
	defer o.serve.RUnlock()
	key := r.URL.Path
	if strings.HasSuffix(key, ".html") {
		now := time.Now()
		o.mu.Lock()
		o.checkAt = append(o.checkAt, now.Sub(o.t0))
		v := o.version[key]
		if r.Method == http.MethodGet {
			if since, ok := o.pending[key]; ok {
				o.lagAt = append(o.lagAt, now.Sub(o.t0))
				o.lag = append(o.lag, now.Sub(since))
				delete(o.pending, key)
			}
		}
		cb := o.onGet
		o.mu.Unlock()
		if r.Method == http.MethodGet && cb != nil {
			cb(key, v)
		}
	}
	o.inner.ServeHTTP(w, r)
}

// pendingCount is how many changed pages have not been fetched yet.
func (o *origin) pendingCount() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.pending)
}

// checksSince returns the check and lag samples taken at or after from,
// re-based to it.
func (o *origin) checksSince(from time.Time) (checkAt, lag []time.Duration) {
	base := from.Sub(o.t0)
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, t := range o.checkAt {
		if t >= base {
			checkAt = append(checkAt, t-base)
		}
	}
	for i, t := range o.lagAt {
		if t >= base {
			lag = append(lag, o.lag[i])
		}
	}
	return checkAt, lag
}
