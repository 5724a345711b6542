package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

// strictJSON decodes body the way encoding/json served classify and
// observe before the hand-written decoder: one value, unknown fields
// refused. It is the reference the decoder is checked against.
func strictJSON(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

func TestJSONDecoderGrammar(t *testing.T) {
	cases := []struct {
		name    string
		body    string
		observe bool
		wantErr string // "" accepts
	}{
		{"minimal classify", `{"records":[[0,1,2]]}`, false, ""},
		{"whitespace everywhere", " \t\r\n{ \"proba\" : true ,\n\"records\" : [ [ 0 , 1 , 2 ] , [2,1,0] ] } \n", false, ""},
		{"keys in any order", `{"classes":[1,0],"records":[[0,1,2],[2,1,0]]}`, true, ""},
		{"proba false", `{"records":[[0,1,2]],"proba":false}`, false, ""},
		{"empty object", `{}`, false, ""},
		{"empty records", `{"records":[]}`, false, ""},
		{"empty record", `{"records":[[]]}`, false, ""},
		{"number forms", `{"records":[[-0,0.5e-3,1E+2,5e-324,1.7976931348623157e308,-12.5e0]]}`, false, ""},
		{"empty classes", `{"records":[],"classes":[]}`, true, ""},

		{"empty body", ``, false, "byte 0: unexpected end of body"},
		{"only whitespace", "  \n", false, "byte 3: unexpected end of body"},
		{"null body", `null`, false, "byte 0: null is not accepted"},
		{"array body", `[[0,1,2]]`, false, "byte 0: unexpected '['"},
		{"repeated key", `{"records":[[0,1,2]],"records":[[0,1,2]]}`, false, `byte 21: repeated key "records"`},
		{"repeated proba", `{"proba":true,"records":[[0]],"proba":false}`, false, `byte 30: repeated key "proba"`},
		{"case-folded key", `{"Records":[[0,1,2]]}`, false, "byte 1: key \"Records\" matches \"records\" only case-insensitively"},
		{"case-folded classes", `{"records":[[0]],"CLASSES":[1]}`, true, "only case-insensitively"},
		{"escaped key", `{"rec\u006frds":[[0,1,2]]}`, false, "byte 1: escape sequence in key"},
		{"unknown key", `{"records":[[0,1,2]],"extra":1}`, false, `byte 21: unknown key "extra"`},
		{"classes on classify", `{"records":[[0,1,2]],"classes":[1]}`, false, `unknown key "classes"`},
		{"proba on observe", `{"records":[[0,1,2]],"classes":[1],"proba":true}`, true, `unknown key "proba"`},
		{"unterminated key", `{"records`, false, "byte 1: unterminated key"},
		{"non-string key", `{records:[[0]]}`, false, "byte 1: unexpected 'r', want a key"},
		{"missing colon", `{"records" [[0]]}`, false, "byte 11: unexpected '[', want ':'"},
		{"numeric proba", `{"records":[[0,1,2]],"proba":1}`, false, "byte 29: unexpected '1', want true or false"},
		{"string proba", `{"records":[[0,1,2]],"proba":"true"}`, false, "want true or false"},
		{"record not an array", `{"records":[0,1,2]}`, false, "byte 12: unexpected '0', want '[' opening a record"},
		{"records not an array", `{"records":{}}`, false, "byte 11: unexpected '{', want '['"},
		{"string value", `{"records":[["0"]]}`, false, "byte 13: unexpected '\"', want a number"},
		{"fractional class", `{"records":[[0]],"classes":[1.5]}`, true, "byte 28: class 1.5 is not an integer"},
		{"exponent class", `{"records":[[0]],"classes":[1e0]}`, true, "class 1e0 is not an integer"},
		{"class overflow", `{"records":[[0]],"classes":[9223372036854775808]}`, true, "does not fit an int64"},
		{"missing classes", `{"records":[[0,1,2]]}`, true, `byte 21: observe body has no "classes"`},
		{"leading zero", `{"records":[[01]]}`, false, "byte 14: unexpected '1', want ',' or ']'"},
		{"leading plus", `{"records":[[+1]]}`, false, "byte 13: unexpected '+', want a number"},
		{"bare fraction", `{"records":[[.5]]}`, false, "want a number"},
		{"dangling point", `{"records":[[1.]]}`, false, "byte 13: number 1. has no digits after '.'"},
		{"dangling exponent", `{"records":[[1e+]]}`, false, "byte 13: number 1e+ has no exponent digits"},
		{"lone minus", `{"records":[[-]]}`, false, "byte 14: unexpected ']', want a number"},
		{"hex", `{"records":[[0x1]]}`, false, "unexpected 'x'"},
		{"infinity", `{"records":[[Infinity]]}`, false, "want a number"},
		{"nan", `{"records":[[NaN]]}`, false, "want a number"},
		{"float overflow", `{"records":[[1e400]]}`, false, "byte 13: number 1e400 does not fit a float64"},
		{"trailing comma in object", `{"records":[[0,1,2]],}`, false, "byte 21: unexpected '}', want a key"},
		{"trailing comma in record", `{"records":[[0,1,]]}`, false, "byte 17: unexpected ']', want a number"},
		{"truncated", `{"records":[[0,1,2]]`, false, "byte 20: unexpected end of body, want ',' or '}'"},
		{"trailing object", `{"records":[[0,1,2]]}{"records":[[9,9,9]]}`, false, "byte 21: unexpected '{' after the request object"},
		{"trailing garbage", `{"records":[[0,1,2]]} garbage`, false, "byte 22: unexpected 'g' after the request object"},
	}
	for _, tc := range cases {
		// Whatever is accepted must decode exactly as encoding/json does.
		_, _, _, err := decodeDifferential(t, []byte(tc.body), tc.observe)
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%s: %q refused: %v", tc.name, tc.body, err)
		case tc.wantErr != "" && err == nil:
			t.Errorf("%s: %q accepted, want error containing %q", tc.name, tc.body, tc.wantErr)
		case tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr):
			t.Errorf("%s: %q: error %q, want it to contain %q", tc.name, tc.body, err, tc.wantErr)
		}
	}
}

// TestJSONDecoderRecordsAreClipped: each decoded record is a window of one
// flat array with its capacity clipped, so appending to one record can
// never overwrite the next.
func TestJSONDecoderRecordsAreClipped(t *testing.T) {
	var sc jsonScratch
	req, err := decodeClassifyJSON([]byte(`{"records":[[1,2],[3,4]]}`), &sc)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]float64{{1, 2}, {3, 4}}
	_ = append(req.Records[0], 99)
	if !sameBits(req.Records, want) {
		t.Fatalf("appending to record 0 overwrote record 1: %v", req.Records)
	}
	// The scratch is reused by the next decode; the request must not be.
	if _, err := decodeClassifyJSON([]byte(`{"records":[[7,7],[7,7]]}`), &sc); err != nil {
		t.Fatal(err)
	}
	if !sameBits(req.Records, want) {
		t.Fatalf("a later decode changed an earlier request: %v", req.Records)
	}
}

// httpPost sends body to url with the given Content-Length (-1 sends it
// chunked) and returns the status and the error message of a non-2xx
// answer.
func httpPost(t *testing.T, url, body string, contentLength int64) (int, string) {
	t.Helper()
	var rd io.Reader = strings.NewReader(body)
	if contentLength < 0 {
		rd = io.NopCloser(rd) // hides the length, so the client sends it chunked
	}
	req, err := http.NewRequest(http.MethodPost, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	req.ContentLength = contentLength
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	var e ErrorResponse
	if resp.StatusCode >= 300 {
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatalf("%d answer is not an ErrorResponse: %v", resp.StatusCode, err)
		}
	}
	return resp.StatusCode, e.Error
}

// TestJSONRejectsNull: encoding/json leaves a null at the zero value, so
// before the hand-written decoder a null attribute classified as 0 and a
// null class folded class 0 into the posterior. Every null position is a
// 400 naming the byte offset, and nothing reaches the session.
func TestJSONRejectsNull(t *testing.T) {
	s := New(testModel(), Options{})
	s.Start()
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := NewClient(ts.URL, nil)
	created, err := c.CreateSession(CreateSessionRequest{})
	if err != nil {
		t.Fatal(err)
	}
	base := ts.URL + "/v1/sessions/" + created.ID
	cases := []struct{ position, endpoint, body string }{
		{"value", "classify", `{"records":[[0,null,2]]}`},
		{"record", "classify", `{"records":[[0,1,2],null]}`},
		{"records", "classify", `{"records":null}`},
		{"proba", "classify", `{"records":[[0,1,2]],"proba":null}`},
		{"value", "observe", `{"records":[[0,null,2]],"classes":[1]}`},
		{"record", "observe", `{"records":[null],"classes":[1]}`},
		{"records", "observe", `{"records":null,"classes":[]}`},
		{"classes", "observe", `{"records":[[0,1,2]],"classes":null}`},
		{"class", "observe", `{"records":[[0,1,2]],"classes":[null]}`},
		{"body", "classify", `null`},
	}
	for _, tc := range cases {
		code, msg := httpPost(t, base+"/"+tc.endpoint, tc.body, int64(len(tc.body)))
		want := "byte " + strconv.Itoa(strings.Index(tc.body, "null")) + ": null is not accepted"
		if code != http.StatusBadRequest || !strings.Contains(msg, want) {
			t.Errorf("%s null on %s: %d %q, want 400 containing %q", tc.position, tc.endpoint, code, msg, want)
		}
	}
	info, err := c.Info(created.ID)
	if err != nil {
		t.Fatal(err)
	}
	if info.Observed != 0 {
		t.Fatalf("a refused observe reached the session: observed = %d", info.Observed)
	}
}

// TestTrailingDataRejected: json.Decoder.Decode stops after the first
// value, so a body carrying a second value or garbage used to be served
// from its first value alone — on observe, silently dropping the second
// batch. Every JSON endpoint now refuses anything but whitespace after
// the value, and the refused request changes nothing.
func TestTrailingDataRejected(t *testing.T) {
	s := New(testModel(), Options{})
	s.Start()
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := NewClient(ts.URL, nil)
	created, err := c.CreateSession(CreateSessionRequest{})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := c.Snapshot(created.ID, false)
	if err != nil {
		t.Fatal(err)
	}
	snap.ID = "restored"
	snapJSON, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	base := ts.URL + "/v1/sessions/" + created.ID
	cases := []struct {
		endpoint, url, value string
	}{
		{"classify", base + "/classify", `{"records":[[0,1,2]]}`},
		{"observe", base + "/observe", `{"records":[[0,1,2]],"classes":[1]}`},
		{"create", ts.URL + "/v1/sessions", `{"id":"created-twice"}`},
		{"restore", ts.URL + "/admin/restore", string(snapJSON)},
		{"drain", ts.URL + "/admin/drain", `{"draining":true}`},
	}
	for _, tc := range cases {
		for _, tail := range []string{tc.value, " garbage", "]"} {
			body := tc.value + tail
			if code, msg := httpPost(t, tc.url, body, int64(len(body))); code != http.StatusBadRequest {
				t.Errorf("%s with %q after the value: %d %q, want 400", tc.endpoint, tail, code, msg)
			}
		}
	}
	if info, err := c.Info(created.ID); err != nil || info.Observed != 0 {
		t.Fatalf("a refused observe reached the session: %+v, %v", info, err)
	}
	for _, id := range []string{"created-twice", "restored"} {
		if _, err := c.Info(id); err == nil {
			t.Errorf("a refused request created session %q", id)
		}
	}
	if h, err := c.Healthz(); err != nil || h.Draining {
		t.Fatalf("a refused drain request took effect: %+v, %v", h, err)
	}
	// Trailing whitespace is not data.
	body := `{"records":[[0,1,2]],"classes":[1]}` + " \r\n\t"
	if code, msg := httpPost(t, base+"/observe", body, int64(len(body))); code != http.StatusOK {
		t.Fatalf("observe with trailing whitespace: %d %q", code, msg)
	}
}

// TestCreateSessionEmptyBody: an empty create body selects the default
// options whether it is framed by Content-Length: 0 or sent chunked.
func TestCreateSessionEmptyBody(t *testing.T) {
	s := New(testModel(), Options{})
	s.Start()
	defer s.Close()
	var seen int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seen = r.ContentLength
		s.Handler().ServeHTTP(w, r)
	}))
	defer ts.Close()
	for _, tc := range []struct {
		framing       string
		contentLength int64
		body          string
	}{
		{"Content-Length: 0", 0, ""},
		{"chunked, empty", -1, ""},
		{"chunked, whitespace", -1, " \n"},
		{"chunked, options", -1, `{"map_only":true}`},
	} {
		code, msg := httpPost(t, ts.URL+"/v1/sessions", tc.body, tc.contentLength)
		if code != http.StatusCreated {
			t.Errorf("%s: %d %q, want 201", tc.framing, code, msg)
		}
		if seen != tc.contentLength {
			t.Errorf("%s: server saw Content-Length %d, want %d", tc.framing, seen, tc.contentLength)
		}
	}
}

// canonicalBatch is a random request body as encoding/json renders it:
// finite values biased toward the edges of the float64 range, 1 to 2,048
// records of 0 to 8 attributes, and arbitrary int classes.
type canonicalBatch struct {
	Records [][]float64
	Classes []int
	Proba   bool
}

// edgeFloats are values whose shortest rendering stresses the number
// grammar and the float conversion.
var edgeFloats = []float64{
	0, math.Copysign(0, -1), 5e-324, -5e-324, 1e-323, 2.2250738585072009e-308,
	2.2250738585072014e-308, math.MaxFloat64, -math.MaxFloat64, 1, -1, 0.1,
	1e21, 1e-7, 123456789012345680000, 9007199254740993, 0.30000000000000004,
}

func (canonicalBatch) Generate(r *rand.Rand, _ int) reflect.Value {
	n := 1 + r.Intn(16)
	if r.Intn(8) == 0 {
		n = 1 + r.Intn(2048)
	}
	flat := make([]float64, 0, n*8)
	b := canonicalBatch{Records: make([][]float64, n), Classes: make([]int, n), Proba: r.Intn(2) == 0}
	for i := range b.Records {
		start := len(flat)
		for j := r.Intn(9); j > 0; j-- {
			var v float64
			switch r.Intn(5) {
			case 0:
				v = edgeFloats[r.Intn(len(edgeFloats))]
			case 1: // subnormal
				v = math.Float64frombits(r.Uint64() & (1<<52 - 1))
			case 2: // integral
				v = float64(r.Int63n(1 << 53))
			case 3: // any finite bit pattern
				for v = math.Inf(1); math.IsInf(v, 0) || math.IsNaN(v); {
					v = math.Float64frombits(r.Uint64())
				}
			default:
				v = r.NormFloat64() * 1000
			}
			if r.Intn(2) == 0 {
				v = -v
			}
			flat = append(flat, v)
		}
		b.Records[i] = flat[start:len(flat):len(flat)]
		switch r.Intn(4) {
		case 0:
			b.Classes[i] = math.MinInt64 + r.Intn(2)
		case 1:
			b.Classes[i] = math.MaxInt64 - r.Intn(2)
		default:
			b.Classes[i] = r.Intn(10) - 2
		}
	}
	return reflect.ValueOf(b)
}

// TestJSONDecodesCanonicalBodies: whatever json.Marshal renders for a
// request, the decoder accepts and decodes bit-identically, so no client
// that encodes with encoding/json is ever refused.
func TestJSONDecodesCanonicalBodies(t *testing.T) {
	var sc jsonScratch
	prop := func(b canonicalBatch) bool {
		cbody, err := json.Marshal(ClassifyRequest{Records: b.Records, Proba: b.Proba})
		if err != nil {
			t.Fatal(err)
		}
		creq, err := decodeClassifyJSON(cbody, &sc)
		if err != nil {
			t.Logf("classify body refused: %v", err)
			return false
		}
		obody, err := json.Marshal(ObserveRequest{Records: b.Records, Classes: b.Classes})
		if err != nil {
			t.Fatal(err)
		}
		oreq, err := decodeObserveJSON(obody, &sc)
		if err != nil {
			t.Logf("observe body refused: %v", err)
			return false
		}
		return sameBits(creq.Records, b.Records) && creq.Proba == b.Proba &&
			sameBits(oreq.Records, b.Records) && slices.Equal(oreq.Classes, b.Classes)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// seaBodies renders n SEA-like records (3 numeric attributes
// with full-precision values) as classify and observe bodies.
func seaBodies(n int) (classify, observe []byte) {
	r := rand.New(rand.NewSource(int64(n)))
	req := ObserveRequest{Records: make([][]float64, n), Classes: make([]int, n)}
	for i := range req.Records {
		req.Records[i] = []float64{r.Float64() * 10, r.Float64() * 10, r.Float64() * 10}
		req.Classes[i] = r.Intn(2)
	}
	classify, _ = json.Marshal(ClassifyRequest{Records: req.Records, Proba: true})
	observe, _ = json.Marshal(req)
	return classify, observe
}

// benchSink keeps benchmarked decodes from being optimized away.
var benchSink ClassifyRequest

// BenchmarkJSONDecode compares encoding/json with the hand-written
// decoder on a 16-record classify body.
func BenchmarkJSONDecode(b *testing.B) {
	body, _ := seaBodies(16)
	b.Run("encoding_json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchSink = ClassifyRequest{}
			if err := strictJSON(body, &benchSink); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decoder", func(b *testing.B) {
		b.ReportAllocs()
		var sc jsonScratch
		var err error
		for i := 0; i < b.N; i++ {
			if benchSink, err = decodeClassifyJSON(body, &sc); err != nil {
				b.Fatal(err)
			}
		}
	})
}
