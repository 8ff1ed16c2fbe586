package v1

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
)

// Client is the typed HTTP client over the v1 wire API. The cluster
// forwarding path and cdtrace's -solve mode go through it, so their request
// construction and error decoding live in one place.
//
// The zero value is not usable; construct with NewClient. Client is safe for
// concurrent use (it holds only immutable configuration and an *http.Client).
type Client struct {
	// Base is the server's root URL, e.g. "http://127.0.0.1:8080", with no
	// trailing slash.
	Base string
	// HTTP performs the requests; NewClient defaults it to a plain
	// &http.Client{}. Set a Timeout on it to bound each call client-side in
	// addition to any ctx deadline.
	HTTP *http.Client
}

// NewClient builds a Client for the given base URL (trailing slashes are
// trimmed). A nil httpClient uses a fresh zero-value http.Client.
func NewClient(base string, httpClient *http.Client) *Client {
	if httpClient == nil {
		httpClient = &http.Client{}
	}
	return &Client{Base: strings.TrimRight(base, "/"), HTTP: httpClient}
}

// APIError is a non-2xx v1 response decoded into its error envelope. The
// zero Code means the body did not carry a v1 error (e.g. a proxy answered).
type APIError struct {
	// Status is the HTTP status code.
	Status int
	// Code is the machine-readable v1 error code (one of the Code*
	// constants), "" when the body had no v1 envelope.
	Code string
	// Message is the human-readable detail.
	Message string
}

// Error implements error.
func (e *APIError) Error() string {
	if e.Code == "" {
		return fmt.Sprintf("api: HTTP %d: %s", e.Status, e.Message)
	}
	return fmt.Sprintf("api: HTTP %d %s: %s", e.Status, e.Code, e.Message)
}

// Solve posts req to POST /v1/solve and decodes the response. requestID, when
// non-empty, is sent as X-Request-ID so the call is traceable end to end in
// the server's /metrics event stream. Non-2xx responses return an *APIError.
func (c *Client) Solve(ctx context.Context, req *SolveRequest, requestID string) (*SolveResponse, error) {
	body, err := solveBody(req)
	if err != nil {
		return nil, fmt.Errorf("api: marshal /v1/solve request: %w", err)
	}
	var resp SolveResponse
	if err := c.post(ctx, "/v1/solve", requestID, body, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// solveBody returns json.Marshal(req)'s bytes, with the instance appended
// in place by its own encoder: json.Marshal would scan and compact the
// set's MarshalJSON output once more, and copy it.
func solveBody(req *SolveRequest) ([]byte, error) {
	env := *req
	env.Instance = nil
	b, err := json.Marshal(&env)
	if err != nil || req.Instance == nil {
		return b, err
	}
	const head = `{"instance":` // Instance is the first field
	return append(req.Instance.AppendJSON([]byte(head)), b[len(head+"null"):]...), nil
}

// Solvers fetches the registry catalog from GET /v1/solvers.
func (c *Client) Solvers(ctx context.Context) (*SolversResponse, error) {
	var resp SolversResponse
	if err := c.get(ctx, "/v1/solvers", &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Health fetches GET /healthz.
func (c *Client) Health(ctx context.Context) (*Health, error) {
	var resp Health
	if err := c.get(ctx, "/healthz", &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// ClusterHealth fetches GET /v1/cluster/health — the gossip probe cluster
// nodes poll each other with.
func (c *Client) ClusterHealth(ctx context.Context) (*ClusterHealth, error) {
	var resp ClusterHealth
	if err := c.get(ctx, "/v1/cluster/health", &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

func (c *Client) post(ctx context.Context, path, requestID string, body []byte, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.Base+path, bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("api: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	if requestID != "" {
		req.Header.Set("X-Request-ID", requestID)
	}
	return c.do(req, out)
}

func (c *Client) get(ctx context.Context, path string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+path, nil)
	if err != nil {
		return fmt.Errorf("api: %w", err)
	}
	return c.do(req, out)
}

// do executes the request and decodes a 2xx body into out, or a non-2xx body
// into an *APIError carrying the v1 error envelope when present.
func (c *Client) do(req *http.Request, out any) error {
	httpc := c.HTTP
	if httpc == nil {
		httpc = &http.Client{}
	}
	resp, err := httpc.Do(req)
	if err != nil {
		return fmt.Errorf("api: %s %s: %w", req.Method, req.URL.Path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return decodeAPIError(resp)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("api: decode %s response: %w", req.URL.Path, err)
	}
	io.Copy(io.Discard, resp.Body)
	return nil
}

// decodeAPIError turns a non-2xx response into an *APIError, preserving the
// v1 error envelope when the body carries one and falling back to the raw
// body text (truncated) when it does not.
func decodeAPIError(resp *http.Response) error {
	const maxErrBody = 4096
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, maxErrBody))
	var env ErrorResponse
	if err := json.Unmarshal(raw, &env); err == nil && env.Error.Code != "" {
		return &APIError{Status: resp.StatusCode, Code: env.Error.Code, Message: env.Error.Message}
	}
	return &APIError{Status: resp.StatusCode, Message: strings.TrimSpace(string(raw))}
}
