package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"

	"repro/internal/pointset"
)

// DecodeBody sends body through the /v1 body path of a default-configured
// server and returns the wire error code, or "" when it decoded into dst,
// whose instance field is inst.
func DecodeBody(body []byte, dst any, inst **pointset.Set) string {
	r := httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(body))
	if e := (&Server{}).decodeBody(httptest.NewRecorder(), r, dst, inst); e != nil {
		return e.Code
	}
	return ""
}
