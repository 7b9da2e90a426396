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
	"time"

	"thinslice/internal/server"
	"thinslice/internal/session"
)

// errTransport marks failures to reach the server or read its answer,
// as against answers that are wrong.
var errTransport = errors.New("transport")

// requestTimeout bounds one request; the server's own default deadline
// is 10s, so a request this slow has already failed.
const requestTimeout = 60 * time.Second

// newConn returns an HTTP client pinned to at most one keep-alive
// connection, so a workload's connection count is the number of these
// it holds.
func newConn() *http.Client {
	return &http.Client{
		Timeout: requestTimeout,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

// post sends body and reads the whole answer. The latency covers the
// send and the full read; decoding happens after the clock stops.
func post(hc *http.Client, url string, body []byte) (float64, *server.Response, error) {
	start := time.Now()
	resp, err := hc.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, fmt.Errorf("%w: %w", errTransport, err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	ms := msSince(start)
	if err != nil {
		return ms, nil, fmt.Errorf("%w: reading answer: %w", errTransport, err)
	}
	var r server.Response
	if err := json.Unmarshal(raw, &r); err != nil {
		return ms, nil, fmt.Errorf("malformed answer (HTTP %d): %w", resp.StatusCode, err)
	}
	if resp.StatusCode != http.StatusOK || r.Status != "ok" {
		return ms, &r, fmt.Errorf("HTTP %d status %s kind %s: %s", resp.StatusCode, r.Status, r.Kind, r.Error)
	}
	return ms, &r, nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }

// watchStream is a client of one /watch stream over a raw connection:
// Go's HTTP client is half-duplex and would not read events while the
// request body is still open.
type watchStream struct {
	conn   net.Conn
	body   io.ReadCloser
	events *bufio.Scanner
}

// openWatch sends the init message and waits for the response headers.
func openWatch(addr string, init server.Request) (*watchStream, error) {
	conn, err := net.DialTimeout("tcp", addr, 10*time.Second)
	if err != nil {
		return nil, fmt.Errorf("%w: dialing watch stream: %w", errTransport, err)
	}
	fmt.Fprintf(conn, "POST /watch HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\nTransfer-Encoding: chunked\r\n\r\n", addr)
	w := &watchStream{conn: conn}
	if err := w.send(init); err != nil {
		conn.Close()
		return nil, err
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), &http.Request{Method: http.MethodPost})
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("%w: reading watch response: %w", errTransport, err)
	}
	if resp.StatusCode != http.StatusOK {
		conn.Close()
		return nil, fmt.Errorf("watch stream refused: HTTP %d", resp.StatusCode)
	}
	w.body = resp.Body
	w.events = bufio.NewScanner(resp.Body)
	w.events.Buffer(make([]byte, 0, 64<<10), 16<<20)
	return w, nil
}

// send writes one JSON message as one chunk.
func (w *watchStream) send(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return w.sendRaw(b)
}

// sendRaw writes one encoded JSON message as one chunk.
func (w *watchStream) sendRaw(b []byte) error {
	b = append(b, '\n')
	if _, err := fmt.Fprintf(w.conn, "%x\r\n%s\r\n", len(b), b); err != nil {
		return fmt.Errorf("%w: sending watch message: %w", errTransport, err)
	}
	return nil
}

// next returns the next revision event, skipping heartbeats.
func (w *watchStream) next() (server.WatchEvent, error) {
	_ = w.conn.SetReadDeadline(time.Now().Add(requestTimeout))
	for {
		var ev server.WatchEvent
		if !w.events.Scan() {
			return ev, fmt.Errorf("%w: watch stream ended: %v", errTransport, w.events.Err())
		}
		if err := json.Unmarshal(w.events.Bytes(), &ev); err != nil {
			return ev, fmt.Errorf("malformed watch event: %w", err)
		}
		if ev.Status != "heartbeat" {
			return ev, nil
		}
	}
}

// close drops the connection. The raw connection goes first: closing
// a chunked body drains it to EOF, which a live stream never reaches.
func (w *watchStream) close() {
	_ = w.conn.Close()
	if w.body != nil {
		_ = w.body.Close()
	}
}

// parseSeed parses "file:line".
func parseSeed(raw string) (session.Seed, error) {
	i := strings.LastIndex(raw, ":")
	if i < 0 {
		return session.Seed{}, fmt.Errorf("seed %q is not file:line", raw)
	}
	line, err := strconv.Atoi(raw[i+1:])
	if err != nil {
		return session.Seed{}, fmt.Errorf("seed %q: %w", raw, err)
	}
	return session.Seed{File: raw[:i], Line: line}, nil
}
