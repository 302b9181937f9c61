package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
)

// The benchmark's own load generator, in two modes.
//
// Open loop (phase): request i is due at t0 + i/rate. One keep-alive
// connection per sender goroutine. A free sender takes the next index (one
// sender at a time), sleeps (a raw nanosleep, whose overshoot is tens of
// microseconds, unlike the runtime timer's millisecond granularity) until
// spinAhead before the due time, spins the rest, and sends. Latency is
// measured from the due time, so a slow daemon cannot hide its backlog by
// slowing the sender down (no coordinated omission).
//
// Closed loop (pipeline): one connection carries a window of batch POSTs
// in flight (HTTP/1.1 pipelining), driven by one goroutine that
// busy-polls the socket.

// spinAhead is how long before a due time the sender stops sleeping and
// starts spinning.
const spinAhead = 200 * time.Microsecond

// waitUntil returns at the first instant at or after t.
func waitUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		if d > spinAhead {
			ts := syscall.NsecToTimespec(int64(d - spinAhead))
			syscall.Nanosleep(&ts, nil)
			continue
		}
		for time.Now().Before(t) {
		}
		return
	}
}

// conn is one keep-alive HTTP connection to the daemon.
type conn struct {
	hc   *http.Client
	base string
	body []byte
}

func newConn(base string) *conn {
	return &conn{base: base, hc: &http.Client{
		Timeout: 10 * time.Second,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
		},
	}}
}

func (c *conn) close() { c.hc.CloseIdleConnections() }

// scheduleOne posts one JSON request and returns the chosen disk.
func (c *conn) scheduleOne(b core.BlockID) (core.DiskID, error) {
	c.body = strconv.AppendInt(append(c.body[:0], `{"block":`...), int64(b), 10)
	c.body = append(c.body, '}')
	resp, err := c.hc.Post(c.base+"/v1/schedule", "application/json", bytes.NewReader(c.body))
	if err != nil {
		return core.InvalidDisk, err
	}
	out, err := replyBody(resp)
	if err != nil {
		return core.InvalidDisk, err
	}
	var reply struct {
		Block int64 `json:"block"`
		Disk  int   `json:"disk"`
	}
	if err := json.Unmarshal(out, &reply); err != nil {
		return core.InvalidDisk, err
	}
	if reply.Block != int64(b) {
		return core.InvalidDisk, fmt.Errorf("reply for block %d, sent %d", reply.Block, b)
	}
	return core.DiskID(reply.Disk), nil
}

// appendBatchBody appends the compact body: space-separated block IDs.
func appendBatchBody(buf []byte, blocks []core.BlockID) []byte {
	for i, b := range blocks {
		if i > 0 {
			buf = append(buf, ' ')
		}
		buf = strconv.AppendInt(buf, int64(b), 10)
	}
	return buf
}

// parseBatchReply decodes the compact reply: one line per block, "disk
// at_us" or "! code".
func parseBatchReply(out []byte, disks []core.DiskID) error {
	lines := strings.Split(strings.TrimRight(string(out), "\n"), "\n")
	if len(lines) != len(disks) {
		return fmt.Errorf("%d reply lines for %d blocks", len(lines), len(disks))
	}
	for i, l := range lines {
		if strings.HasPrefix(l, "!") {
			disks[i] = core.InvalidDisk
			continue
		}
		f := strings.Fields(l)
		if len(f) != 2 {
			return fmt.Errorf("bad reply line %q", l)
		}
		d, err := strconv.Atoi(f[0])
		if err != nil {
			return fmt.Errorf("bad reply line %q", l)
		}
		disks[i] = core.DiskID(d)
	}
	return nil
}

// statusError is a well-formed non-200 reply; the stream stays usable.
type statusError struct {
	status int
	body   string
}

func (e statusError) Error() string { return fmt.Sprintf("status %d: %s", e.status, e.body) }

// replyBody reads and closes a response's body; a non-200 status is a
// statusError.
func replyBody(resp *http.Response) ([]byte, error) {
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, statusError{resp.StatusCode, strings.TrimSpace(string(out))}
	}
	return out, nil
}

// sample is one request (or POST) as the generator saw it, in times since
// the phase began.
type sample struct {
	due, pick, sent, done time.Duration
	blocks                []core.BlockID
	disks                 []core.DiskID // one per block; InvalidDisk = rejected
	err                   error
}

// latency is the reply time measured from the due time (open loop) or
// from the send (closed loop, where due = sent).
func (s sample) latency() time.Duration { return s.done - s.due }

// lag is how long after its due time the request went out: queueing behind
// busy connections plus the generator's own lateness.
func (s sample) lag() time.Duration { return s.sent - s.due }

// genLate is the generator's own lateness: how late the send was relative
// to the moment it could first have gone out.
func (s sample) genLate() time.Duration { return s.sent - max(s.due, s.pick) }

// phase is one open-loop slice: single-block JSON requests, one per block,
// request i due at i/rate seconds, over conns. It stops taking new
// requests once it overruns its nominal length by overrun.
type phase struct {
	conns   []*conn
	blocks  []core.BlockID
	rate    float64
	overrun time.Duration
}

func (p phase) run() (samples []sample, wall time.Duration) {
	n := len(p.blocks)
	samples = make([]sample, n)
	sent := make([]bool, n)
	var next atomic.Int64
	// pacer serializes waiting for due times: only the sender holding it
	// sleeps and spins, so at most one core spins however many connections
	// there are.
	var pacer sync.Mutex
	var wg sync.WaitGroup
	t0 := time.Now()
	period := time.Duration(float64(time.Second) / p.rate)
	stopAt := t0.Add(time.Duration(n)*period + p.overrun)
	for _, c := range p.conns {
		wg.Add(1)
		go func(c *conn) {
			defer wg.Done()
			for {
				pacer.Lock()
				i := int(next.Add(1) - 1)
				pick := time.Since(t0)
				due := time.Duration(i) * period
				if i < n && time.Now().Before(stopAt) {
					waitUntil(t0.Add(due))
				} else {
					i = n
				}
				pacer.Unlock()
				if i >= n {
					return
				}
				s := sample{due: due, pick: pick, blocks: p.blocks[i : i+1], disks: make([]core.DiskID, 1)}
				s.sent = time.Since(t0)
				s.disks[0], s.err = c.scheduleOne(p.blocks[i])
				s.done = time.Since(t0)
				samples[i], sent[i] = s, true
			}
		}(c)
	}
	wg.Wait()
	wall = time.Since(t0)
	out := samples[:0]
	for i, s := range samples {
		if sent[i] {
			out = append(out, s)
		}
	}
	return out, wall
}

// pipelineTimeout bounds one pipelined job; a daemon that stops answering
// fails the job instead of hanging the run.
const pipelineTimeout = time.Minute

// pipeline sends blocks to the daemon at addr in compact batch POSTs of
// per blocks, window POSTs in flight on one keep-alive connection.
// Replies are parsed in order. A sample's latency runs from its POST's
// write to its reply. A non-200 reply fails its POST only; a broken stream
// fails the rest of the job.
//
// One goroutine does all of it and never blocks in the kernel: it
// busy-polls the socket and tops the window up while it waits. So the core
// running it never goes idle, and the daemon, on the other core, finds the
// next request buffered when it finishes one. A job that waits in the
// kernel instead times how fast the host wakes an idle core, which moved
// serving throughput threefold within minutes on a shared 2-core VM while
// the figure workloads moved by a tenth.
//
// spans, when non-nil, receives one span per POST under parent.
func pipeline(addr string, blocks []core.BlockID, per, window int, spans *spanLog, parent int) ([]sample, time.Duration) {
	n := len(blocks) / per
	samples := make([]sample, n)
	for i := range samples {
		samples[i] = sample{blocks: blocks[i*per : (i+1)*per], disks: make([]core.DiskID, per)}
	}
	t0 := time.Now()
	fail := func(from int, err error) ([]sample, time.Duration) {
		for i := from; i < n; i++ {
			samples[i].err = err
		}
		return samples, time.Since(t0)
	}
	c, err := net.DialTimeout("tcp", addr, 10*time.Second)
	if err != nil {
		return fail(0, err)
	}
	defer c.Close()
	raw, err := c.(*net.TCPConn).SyscallConn()
	if err != nil {
		return fail(0, err)
	}
	ids := make([]int, n)
	sc := &spinConn{raw: raw, deadline: t0.Add(pipelineTimeout)}
	sent, done := 0, 0
	var body []byte
	sc.fill = func() {
		now := time.Since(t0)
		for ; sent < n && sent-done < window; sent++ {
			s := &samples[sent]
			body = appendBatchBody(body[:0], s.blocks)
			sc.out = append(sc.out, "POST /v1/schedule/batch HTTP/1.1\r\nHost: eschedd\r\nContent-Type: text/plain\r\nContent-Length: "...)
			sc.out = strconv.AppendInt(sc.out, int64(len(body)), 10)
			sc.out = append(append(sc.out, "\r\n\r\n"...), body...)
			s.due, s.pick, s.sent = now, now, now
			if spans != nil {
				ids[sent] = spans.begin(parent, "POST")
			}
		}
	}

	br := bufio.NewReaderSize(sc, 64<<10)
	for ; done < n; done++ {
		if sent-done <= window/2 {
			// Top up while replies are still buffered, so the daemon's
			// input never runs dry.
			if err := sc.flush(); err != nil {
				return fail(done, err)
			}
		}
		s := &samples[done]
		resp, err := http.ReadResponse(br, nil)
		var out []byte
		if err == nil {
			out, err = replyBody(resp)
		}
		s.done = time.Since(t0)
		if spans != nil {
			spans.end(ids[done])
		}
		var status statusError
		switch {
		case err == nil:
			s.err = parseBatchReply(out, s.disks)
		case errors.As(err, &status):
			s.err = err
		default:
			return fail(done, err)
		}
	}
	return samples, time.Since(t0)
}

// spinConn reads a socket without blocking in the kernel: while no data
// has arrived it writes whatever fill queues in out, and polls again.
type spinConn struct {
	raw      syscall.RawConn
	out      []byte
	fill     func()
	deadline time.Time
}

// flush queues more requests and writes as much of out as the socket
// takes now.
func (c *spinConn) flush() error {
	c.fill()
	if len(c.out) == 0 {
		return nil
	}
	var n int
	var err error
	c.raw.Write(func(fd uintptr) bool {
		n, err = syscall.Write(int(fd), c.out)
		return true
	})
	if n > 0 {
		c.out = c.out[:copy(c.out, c.out[n:])]
	}
	if err == syscall.EAGAIN || err == syscall.EINTR {
		return nil
	}
	return err
}

func (c *spinConn) Read(p []byte) (int, error) {
	for {
		if err := c.flush(); err != nil {
			return 0, err
		}
		var n int
		var err error
		c.raw.Read(func(fd uintptr) bool {
			n, err = syscall.Read(int(fd), p)
			return true
		})
		switch {
		case n > 0:
			return n, nil
		case err == syscall.EAGAIN || err == syscall.EINTR:
			if time.Now().After(c.deadline) {
				return 0, fmt.Errorf("no reply within %v", pipelineTimeout)
			}
		case err != nil:
			return 0, err
		default:
			return 0, io.EOF
		}
	}
}
