package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"time"
)

// client is one closed-loop caller: it sends its next request only after
// the previous reply is read, over one keep-alive connection of its own.
type client struct {
	id   int
	base string
	hc   *http.Client
	rng  *rand.Rand
	buf  bytes.Buffer

	// Per-phase tallies, reset by the runner between phases.
	lat      []time.Duration // one per completed op
	units    int64           // work units completed (requests, decisions, points)
	failed   int64           // work units of failed ops
	attempts int64           // work units attempted
	nops     int64           // ops started (decide uses it for its publish cadence)
}

func newClient(id int, base string, seed int64) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	return &client{
		id:   id,
		base: base,
		hc:   &http.Client{Transport: tr, Timeout: 60 * time.Second},
		rng:  rand.New(rand.NewSource(seed*7919 + int64(id))),
	}
}

// do sends one request and reads the whole reply. The returned body
// aliases the client's buffer and is valid until the next call; the
// duration runs from just before the send to the last byte read.
func (c *client) do(method, path string, body []byte) (int, []byte, time.Duration, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, time.Since(start), err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	dur := time.Since(start)
	if err != nil {
		return resp.StatusCode, nil, dur, err
	}
	return resp.StatusCode, c.buf.Bytes(), dur, nil
}

// traced is do inside a child span of op.
func (c *client) traced(tr *tracer, name string, op int64, method, path string, body []byte) (int, []byte, time.Duration, error) {
	id := tr.begin(name, op, op)
	code, b, dur, err := c.do(method, path, body)
	tr.end(id)
	return code, b, dur, err
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// statusErr turns an unexpected status into an error carrying the body.
func statusErr(what string, code, want int, body []byte) error {
	if code == want {
		return nil
	}
	if len(body) > 300 {
		body = body[:300]
	}
	return fmt.Errorf("%s: status %d, want %d: %s", what, code, want, bytes.TrimSpace(body))
}

// checks collects correctness findings from every client goroutine; the
// first few are kept for the report.
type checks struct {
	mu       sync.Mutex
	count    int
	examples []string
}

func (k *checks) fail(format string, args ...any) {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.count++
	if len(k.examples) < 5 {
		k.examples = append(k.examples, fmt.Sprintf(format, args...))
	}
}
