package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	neturl "net/url"
	"time"

	"cardpi/internal/codec"
)

// reply is the part of one served answer the benchmark checks, in the same
// shape for the JSON and binary formats.
type reply struct {
	EstSel   float64 `json:"estimate_selectivity"`
	EstRows  float64 `json:"estimate_rows"`
	LoSel    float64 `json:"interval_lo_selectivity"`
	HiSel    float64 `json:"interval_hi_selectivity"`
	LoRows   float64 `json:"interval_lo_rows"`
	HiRows   float64 `json:"interval_hi_rows"`
	TrueRows int64   `json:"true_rows"`
	Covered  bool    `json:"covered"`
	ServedBy string  `json:"served_by"`
}

// primary reports whether the learned primary stage served the answer.
func (r *reply) primary() bool { return r.ServedBy == "primary" }

// invariants are the checks cheap enough to run on every answer inside the
// timed window: finite numbers, ordered bounds inside their domains, and a
// covered flag consistent with the numbers it summarises.
func (r *reply) invariants() error {
	for _, v := range []float64{r.EstSel, r.EstRows, r.LoSel, r.HiSel, r.LoRows, r.HiRows} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("non-finite value in %+v", *r)
		}
	}
	if r.LoSel < 0 || r.LoSel > r.HiSel || r.HiSel > 1 || r.LoRows > r.HiRows {
		return fmt.Errorf("unordered interval in %+v", *r)
	}
	if r.TrueRows >= 0 && r.Covered != (float64(r.TrueRows) >= r.LoRows && float64(r.TrueRows) <= r.HiRows) {
		return fmt.Errorf("covered flag disagrees with the interval in %+v", *r)
	}
	return nil
}

// client is one closed-loop connection to the server.
type client struct {
	base string
	http *http.Client
	body []byte // reusable binary request buffer
	wire []codec.WireResult
}

func newClient(base string) *client {
	return &client{
		base: base,
		http: &http.Client{
			Timeout:   30 * time.Second,
			Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true},
		},
	}
}

// close releases the client's idle connection.
func (c *client) close() { c.http.CloseIdleConnections() }

// do sends req and returns the body of a 200 answer.
func (c *client) do(req *http.Request) ([]byte, error) {
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d: %s", req.URL.Path, resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, nil
}

// estimate answers queries in the workload's format: one GET /estimate for
// a single query, otherwise one POST /estimate/batch (binary or JSON). The
// replies are appended to out in query order.
func (c *client) estimate(ctx context.Context, w *workloadSpec, queries []string, out []reply) ([]reply, error) {
	if w.batch == 0 {
		if len(queries) != 1 {
			return out, fmt.Errorf("single-query workload sent %d queries", len(queries))
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/estimate?q="+neturl.QueryEscape(queries[0]), nil)
		if err != nil {
			return out, err
		}
		body, err := c.do(req)
		if err != nil {
			return out, err
		}
		var r reply
		if err := json.Unmarshal(body, &r); err != nil {
			return out, fmt.Errorf("decode /estimate reply: %w", err)
		}
		return append(out, r), nil
	}
	var reqBody []byte
	contentType := "application/json"
	if w.wire {
		c.body = codec.AppendWireRequest(c.body[:0], queries)
		reqBody, contentType = c.body, codec.WireContentType
	} else {
		var err error
		if reqBody, err = json.Marshal(map[string][]string{"queries": queries}); err != nil {
			return out, err
		}
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/estimate/batch", bytes.NewReader(reqBody))
	if err != nil {
		return out, err
	}
	req.Header.Set("Content-Type", contentType)
	body, err := c.do(req)
	if err != nil {
		return out, err
	}
	if w.wire {
		_, c.wire, err = codec.DecodeWireResponse(body, c.wire[:0])
		if err != nil {
			return out, fmt.Errorf("decode binary batch reply: %w", err)
		}
		if len(c.wire) != len(queries) {
			return out, fmt.Errorf("binary batch reply has %d results for %d queries", len(c.wire), len(queries))
		}
		for i := range c.wire {
			wr := &c.wire[i]
			servedBy := "primary"
			if wr.Depth != 0 {
				servedBy = fmt.Sprintf("depth-%d", wr.Depth)
			}
			out = append(out, reply{
				EstSel: wr.EstSel, EstRows: wr.EstRows, LoSel: wr.LoSel, HiSel: wr.HiSel,
				LoRows: wr.LoRows, HiRows: wr.HiRows, TrueRows: wr.TrueRows,
				Covered: wr.Flags&codec.WireFlagCovered != 0, ServedBy: servedBy,
			})
		}
		return out, nil
	}
	var br struct {
		Count   int     `json:"count"`
		Results []reply `json:"results"`
	}
	if err := json.Unmarshal(body, &br); err != nil {
		return out, fmt.Errorf("decode JSON batch reply: %w", err)
	}
	if br.Count != len(queries) || len(br.Results) != len(queries) {
		return out, fmt.Errorf("JSON batch reply has %d results for %d queries", len(br.Results), len(queries))
	}
	return append(out, br.Results...), nil
}

// insert sends one /admin/scenario insert and returns the table size the
// server reports afterwards.
func (c *client) insert(ctx context.Context, seed int64) (int, error) {
	b, err := json.Marshal(map[string]any{"action": "insert", "rows": insertRows, "seed": seed})
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/admin/scenario", bytes.NewReader(b))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	body, err := c.do(req)
	if err != nil {
		return 0, err
	}
	var r struct {
		Rows int `json:"rows"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return 0, fmt.Errorf("decode /admin/scenario reply: %w", err)
	}
	return r.Rows, nil
}

// scrape reads and parses /metrics.
func (c *client) scrape() (promSample, error) {
	req, err := http.NewRequest(http.MethodGet, c.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	body, err := c.do(req)
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	return parseProm(string(body))
}

// recalStatus is the part of GET /admin/recal the benchmark reads.
type recalStatus struct {
	State      string `json:"state"`
	Attempts   int    `json:"attempts"`
	Swaps      int    `json:"swaps"`
	LastReason string `json:"last_reject_reason"`
	LastError  string `json:"last_error"`
	// Serving is the name of the chain the server currently serves from.
	Serving string `json:"serving"`
}

// busy reports whether a recalibration episode is under way.
func (s recalStatus) busy() bool { return s.State == "recalibrating" || s.State == "backoff" }

// recal reads GET /admin/recal.
func (c *client) recal(ctx context.Context) (recalStatus, error) {
	var st recalStatus
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/admin/recal", nil)
	if err != nil {
		return st, err
	}
	body, err := c.do(req)
	if err != nil {
		return st, err
	}
	if err := json.Unmarshal(body, &st); err != nil {
		return st, fmt.Errorf("decode /admin/recal reply: %w", err)
	}
	return st, nil
}

// triggerRecal forces a recalibration episode (POST /admin/recal/trigger).
func (c *client) triggerRecal(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/admin/recal/trigger", nil)
	if err != nil {
		return err
	}
	_, err = c.do(req)
	return err
}
