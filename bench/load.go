package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// requestTimeout bounds one HTTP request. A request that outlives it is a
// failed operation, never a dropped one.
const requestTimeout = 20 * time.Second

// sample is the outcome of one request. A failed request (transport error,
// timeout, non-200) has ok false and contributes to no latency figure.
type sample struct {
	lat  time.Duration
	ok   bool
	fail string // why the request failed
	body []byte // the 200 response, decoded after the round, off the clock
}

// conn is one client connection: a keep-alive TCP connection that carries
// one request at a time. It writes the request in one piece and parses the
// response with net/http's reader on the calling goroutine. net/http's
// Client would add a read and a write goroutine per connection and two
// hand-offs per request — about a third of the latency of a hub-label
// request, spent in the load generator.
type conn struct {
	addr string // host:port
	c    net.Conn
	br   *bufio.Reader
	buf  []byte // the request being assembled
}

func newConn(base string) *conn {
	return &conn{addr: strings.TrimPrefix(base, "http://")}
}

func (c *conn) close() {
	if c.c != nil {
		c.c.Close()
		c.c = nil
	}
}

// post sends one request and reads the whole response. Any failure closes
// the connection; the next request dials again.
func (c *conn) post(path string, body []byte) sample {
	start := time.Now()
	if c.c == nil {
		nc, err := net.DialTimeout("tcp", c.addr, requestTimeout)
		if err != nil {
			return sample{fail: err.Error()}
		}
		c.c, c.br = nc, bufio.NewReaderSize(nc, 64<<10)
	}
	status, data, err := c.roundTrip(start, path, body)
	lat := time.Since(start)
	if err != nil {
		c.close()
		return sample{fail: err.Error()}
	}
	if status != http.StatusOK {
		return sample{fail: fmt.Sprintf("status %d: %s", status, bytes.TrimSpace(data))}
	}
	return sample{lat: lat, ok: true, body: data}
}

func (c *conn) roundTrip(start time.Time, path string, body []byte) (int, []byte, error) {
	if err := c.c.SetDeadline(start.Add(requestTimeout)); err != nil {
		return 0, nil, err
	}
	c.buf = append(c.buf[:0], "POST "...)
	c.buf = append(c.buf, path...)
	c.buf = append(c.buf, " HTTP/1.1\r\nHost: "...)
	c.buf = append(c.buf, c.addr...)
	c.buf = append(c.buf, "\r\nContent-Type: application/json\r\nContent-Length: "...)
	c.buf = strconv.AppendInt(c.buf, int64(len(body)), 10)
	c.buf = append(c.buf, "\r\n\r\n"...)
	c.buf = append(c.buf, body...)
	if _, err := c.c.Write(c.buf); err != nil {
		return 0, nil, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, nil, err
	}
	if resp.Close {
		c.close()
	}
	return resp.StatusCode, data, nil
}

// closedLoop sends reqs over conns connections, each issuing its next
// request only after the previous one completed, and returns one sample per
// request (index-aligned) with the wall time of the whole sequence. When
// stop is non-nil the loop also ends once it is closed; only the first sent
// samples are then meaningful.
func closedLoop(conns []*conn, reqs []request, stop <-chan struct{}) (samples []sample, sent int, wall time.Duration) {
	samples = make([]sample, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for _, c := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				samples[i] = c.post(reqs[i].path, reqs[i].body)
			}
		}()
	}
	wg.Wait()
	wall = time.Since(start)
	return samples, min(int(next.Load()), len(reqs)), wall
}

// writeSample is one open-loop maintenance operation.
type writeSample struct {
	lat  time.Duration // completion minus due time
	late time.Duration // send minus due time: how late the generator ran
	ok   bool
	fail string
}

// openLoop runs n operations on a fixed schedule — operation i is due at
// start + i*interval — over one connection. An operation is never sent
// before it is due; when the previous one overran, the next is sent at
// once, late, and its latency still counts from its due time, so a stall
// is charged to every operation it delayed. now and sleep are the clock
// (injected for tests); do performs operation i.
func openLoop(n int, interval time.Duration, now func() time.Time, sleep func(time.Duration), do func(i int) (ok bool, fail string)) []writeSample {
	out := make([]writeSample, n)
	start := now()
	for i := range out {
		due := start.Add(time.Duration(i) * interval)
		if wait := due.Sub(now()); wait > 0 {
			sleep(wait)
		}
		sentAt := now()
		ok, fail := do(i)
		out[i] = writeSample{lat: now().Sub(due), late: sentAt.Sub(due), ok: ok, fail: fail}
	}
	return out
}

// writer alternates POST /mat/insert on a free node with POST /mat/delete
// of the point just inserted, so the point set is back at its start state
// after every even number of operations.
type writer struct {
	conn  *conn
	free  []int // nodes the in-process point set shows free, in seeded order
	next  int   // next free node to use
	point int   // the point the last insert created; -1 when none is pending
}

// matResponse is the part of a maintenance answer the writer needs.
type matResponse struct {
	Point int `json:"point"`
}

// op performs write operation i: even operations insert, odd ones delete.
func (w *writer) op(i int) (bool, string) {
	if i%2 == 0 {
		node := w.free[w.next%len(w.free)]
		w.next++
		s := w.conn.post("/mat/insert", fmt.Appendf(nil, `{"node":%d}`, node))
		if !s.ok {
			return false, "insert: " + s.fail
		}
		var r matResponse
		if err := json.Unmarshal(s.body, &r); err != nil {
			return false, "insert response: " + err.Error()
		}
		w.point = r.Point
		return true, ""
	}
	if w.point < 0 {
		return false, "delete skipped: the insert before it failed"
	}
	s := w.conn.post("/mat/delete", fmt.Appendf(nil, `{"point":%d}`, w.point))
	w.point = -1
	if !s.ok {
		return false, "delete: " + s.fail
	}
	return true, ""
}
