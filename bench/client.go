package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"

	"leveldbpp/internal/core"
	"leveldbpp/internal/workload"
)

// client is one closed-loop caller of a front door. prepare runs outside
// the timed segment; do executes operation i of the prepared chunk and is
// what a latency sample covers; digest then folds the result of that
// operation into one number (0 for writes) or checks it in place.
type client interface {
	prepare(ops []workload.Op) error
	do(i int) error
	digest(i int) (uint64, error)
}

// coreClient calls core.DB in-process.
type coreClient struct {
	db  *core.DB
	ops []workload.Op

	value   []byte
	entries []core.Entry
}

func (c *coreClient) prepare(ops []workload.Op) error {
	c.ops, c.value, c.entries = ops, nil, nil
	return nil
}

func (c *coreClient) do(i int) (err error) {
	op := &c.ops[i]
	switch op.Kind {
	case workload.OpPut, workload.OpUpdate:
		return c.db.Put(op.Key, op.Value)
	case workload.OpGet:
		var ok bool
		c.value, ok, err = c.db.Get(op.Key)
		if err == nil && !ok {
			err = fmt.Errorf("GET %s: not found", op.Key)
		}
	case workload.OpLookup:
		c.entries, err = c.db.Lookup(op.Attr, op.Lo, op.K)
	default:
		c.entries, err = c.db.RangeLookup(op.Attr, op.Lo, op.Hi, op.K)
	}
	return err
}

func (c *coreClient) digest(i int) (uint64, error) {
	switch c.ops[i].Kind {
	case workload.OpPut, workload.OpUpdate:
		return 0, nil
	case workload.OpGet:
		return fnv1a(c.value), nil
	default:
		return digestEntries(c.entries), nil
	}
}

func digestEntries(es []core.Entry) uint64 {
	h := uint64(fnvOffset)
	for i := range es {
		if i > 0 && es[i].Seq >= es[i-1].Seq {
			return 0 // not newest-first: can match no expectation
		}
		h = entryDigest(h, es[i].Key, es[i].Value)
	}
	return h
}

// httpClient drives the server over one keep-alive connection. Requests
// are built in prepare, so a latency sample holds the round trip and the
// body read only.
type httpClient struct {
	base string
	hc   *http.Client
	ops  []workload.Op
	reqs []*http.Request
	body bytes.Buffer
}

func newHTTPClient(base string) *httpClient {
	return &httpClient{base: base, hc: &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
	}}
}

func (c *httpClient) close() { c.hc.CloseIdleConnections() }

func (c *httpClient) prepare(ops []workload.Op) error {
	c.ops = ops
	clear(c.reqs)
	c.reqs = c.reqs[:0]
	for i := range ops {
		op := &ops[i]
		var (
			req *http.Request
			err error
		)
		switch op.Kind {
		case workload.OpPut, workload.OpUpdate:
			req, err = http.NewRequest(http.MethodPut, c.base+"/doc/"+op.Key, bytes.NewReader(op.Value))
		case workload.OpGet:
			req, err = http.NewRequest(http.MethodGet, c.base+"/doc/"+op.Key, nil)
		case workload.OpLookup:
			q := url.Values{"attr": {op.Attr}, "value": {op.Lo}, "k": {strconv.Itoa(op.K)}}
			req, err = http.NewRequest(http.MethodGet, c.base+"/lookup?"+q.Encode(), nil)
		default:
			q := url.Values{"attr": {op.Attr}, "lo": {op.Lo}, "hi": {op.Hi}, "k": {strconv.Itoa(op.K)}}
			req, err = http.NewRequest(http.MethodGet, c.base+"/rangelookup?"+q.Encode(), nil)
		}
		if err != nil {
			return err
		}
		c.reqs = append(c.reqs, req)
	}
	return nil
}

func (c *httpClient) do(i int) error {
	resp, err := c.hc.Do(c.reqs[i])
	if err != nil {
		return err
	}
	c.body.Reset()
	_, err = io.Copy(&c.body, resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(c.body.Bytes()))
	}
	return nil
}

func (c *httpClient) digest(i int) (uint64, error) {
	op := &c.ops[i]
	switch op.Kind {
	case workload.OpPut, workload.OpUpdate:
		return 0, nil
	case workload.OpGet:
		return fnv1a(c.body.Bytes()), nil
	default:
		var entries []wireEntry
		if err := json.Unmarshal(c.body.Bytes(), &entries); err != nil {
			return 0, fmt.Errorf("decode results: %w", err)
		}
		return 0, checkInvariants(op, entries)
	}
}
