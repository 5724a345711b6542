package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"testing/quick"
)

// sameBits compares float64 matrices bit for bit — the binary codec's
// round-trip contract has no tolerances.
func sameBits(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if math.Float64bits(a[i][j]) != math.Float64bits(b[i][j]) {
				return false
			}
		}
	}
	return true
}

// rectangular reshapes arbitrary quick-generated floats into an n x m
// record block, so round-trip properties run over genuinely arbitrary
// bit patterns (quick generates NaNs and infinities too).
func rectangular(vals []float64, rows int) [][]float64 {
	if rows <= 0 {
		rows = 1
	}
	cols := len(vals) / rows
	out := make([][]float64, rows)
	for i := range out {
		out[i] = vals[i*cols : (i+1)*cols]
	}
	return out
}

func TestBinaryClassifyRequestRoundTrip(t *testing.T) {
	prop := func(vals []float64, rows uint8, proba bool) bool {
		records := rectangular(vals, int(rows%8)+1)
		in := ClassifyRequest{Records: records, Proba: proba}
		frame, err := EncodeBinaryClassifyRequest(in)
		if err != nil {
			return false
		}
		out, err := DecodeBinaryClassifyRequest(frame)
		if err != nil {
			return false
		}
		return out.Proba == in.Proba && sameBits(out.Records, in.Records)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBinaryObserveRequestRoundTrip(t *testing.T) {
	prop := func(vals []float64, rows uint8, classSeed []int32) bool {
		records := rectangular(vals, int(rows%8)+1)
		classes := make([]int, len(records))
		for i := range classes {
			if len(classSeed) > 0 {
				classes[i] = int(classSeed[i%len(classSeed)])
			}
		}
		in := ObserveRequest{Records: records, Classes: classes}
		frame, err := EncodeBinaryObserveRequest(in)
		if err != nil {
			return false
		}
		out, err := DecodeBinaryObserveRequest(frame)
		if err != nil {
			return false
		}
		return sameBits(out.Records, in.Records) && reflect.DeepEqual(out.Classes, in.Classes)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBinaryClassifyResponseRoundTrip(t *testing.T) {
	prop := func(preds []int32, mapConcept int32, probaVals []float64, withProba bool) bool {
		in := ClassifyResponse{MAPConcept: int(mapConcept), Predictions: make([]int, len(preds))}
		for i, p := range preds {
			in.Predictions[i] = int(p)
		}
		if withProba {
			in.Probabilities = make([][]float64, len(in.Predictions))
			cols := 0
			if len(in.Predictions) > 0 {
				cols = len(probaVals) / len(in.Predictions)
			}
			for i := range in.Probabilities {
				in.Probabilities[i] = probaVals[i*cols : (i+1)*cols]
			}
		}
		frame, err := EncodeBinaryClassifyResponse(in)
		if err != nil {
			return false
		}
		out, err := DecodeBinaryClassifyResponse(frame)
		if err != nil {
			return false
		}
		if out.MAPConcept != in.MAPConcept || !reflect.DeepEqual(out.Predictions, in.Predictions) {
			return false
		}
		if (out.Probabilities == nil) != (in.Probabilities == nil) {
			return false
		}
		return sameBits(out.Probabilities, in.Probabilities)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBinaryObserveResponseRoundTrip(t *testing.T) {
	prop := func(observed int32, rate float64, applied int32, dropped []int32, full, degraded bool) bool {
		in := ObserveResponse{
			Observed:      int(observed),
			ExplainedRate: rate,
			ExplainedFull: full,
			Applied:       int(applied),
			Degraded:      degraded,
		}
		for _, d := range dropped {
			in.Dropped = append(in.Dropped, int(d))
		}
		out, err := DecodeBinaryObserveResponse(EncodeBinaryObserveResponse(in))
		if err != nil {
			return false
		}
		return out.Observed == in.Observed &&
			math.Float64bits(out.ExplainedRate) == math.Float64bits(in.ExplainedRate) &&
			out.ExplainedFull == in.ExplainedFull &&
			out.Applied == in.Applied &&
			out.Degraded == in.Degraded &&
			reflect.DeepEqual(out.Dropped, in.Dropped)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// TestBinaryMalformedFrames pins the rejection surface: truncations,
// length lies, count overflows, bad magic/version/kind — every one must
// be an error, never a partial decode or a panic.
func TestBinaryMalformedFrames(t *testing.T) {
	valid, err := EncodeBinaryClassifyRequest(ClassifyRequest{Records: [][]float64{{1, 2, 3}}})
	if err != nil {
		t.Fatal(err)
	}
	corrupt := func(mut func(b []byte) []byte) []byte {
		b := append([]byte(nil), valid...)
		return mut(b)
	}
	overflow := corrupt(func(b []byte) []byte {
		// nrec * nattr * 8 wraps uint64 to 0: header says 8 payload
		// bytes, counts claim 2^61 floats. Must fail the bounds check,
		// not reach the allocation.
		binary.LittleEndian.PutUint32(b[8:12], 8)
		frame := b[:binHeaderLen+8]
		binary.LittleEndian.PutUint32(frame[12:16], 1<<31)
		binary.LittleEndian.PutUint32(frame[16:20], 1<<30)
		return frame
	})
	cases := []struct {
		name  string
		frame []byte
	}{
		{"empty", nil},
		{"short header", valid[:8]},
		{"bad magic", corrupt(func(b []byte) []byte { b[0] = 'X'; return b })},
		{"bad version", corrupt(func(b []byte) []byte { b[4] = 9; return b })},
		{"wrong kind", corrupt(func(b []byte) []byte { b[5] = binKindObserveReq; return b })},
		{"reserved set", corrupt(func(b []byte) []byte { b[7] = 1; return b })},
		{"truncated payload", valid[:len(valid)-1]},
		{"trailing garbage", append(append([]byte(nil), valid...), 0)},
		{"length overdeclared", corrupt(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[8:12], uint32(len(b)-binHeaderLen+8))
			return b
		})},
		{"length underdeclared", corrupt(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[8:12], uint32(len(b)-binHeaderLen-8))
			return b
		})},
		{"count overflow", overflow},
		{"counts exceed payload", corrupt(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[12:16], 1000)
			return b
		})},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := DecodeBinaryClassifyRequest(tc.frame); err == nil {
				t.Fatalf("malformed frame decoded without error")
			}
		})
	}
	// NaN payloads are a codec-level pass and a validation-level reject:
	// the frame decodes (the codec is bit-transparent), then decodeRecords
	// refuses it exactly as it refuses the JSON equivalent.
	nanFrame, err := EncodeBinaryClassifyRequest(ClassifyRequest{Records: [][]float64{{math.NaN(), 0, 0}}})
	if err != nil {
		t.Fatal(err)
	}
	req, err := DecodeBinaryClassifyRequest(nanFrame)
	if err != nil {
		t.Fatalf("NaN payload must decode at the codec layer: %v", err)
	}
	if _, err := decodeRecords(testModel().Schema, req.Records, nil); err == nil {
		t.Fatal("decodeRecords accepted a NaN attribute")
	}
}

// TestBinaryCodecE2E drives a served session over both codecs and
// requires bit-identical responses: same predictions, same probability
// bits, same observe bookkeeping. The binary session and the JSON session
// are fed the identical stream.
func TestBinaryCodecE2E(t *testing.T) {
	m := buildStaggerModel(t)
	s := New(m, Options{QueueDepth: 32, Workers: 2})
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		s.Close()
	}()

	jsonC := NewClient(ts.URL, nil)
	binC := NewClient(ts.URL, nil).WithCodec(CodecBinary)

	js, err := jsonC.CreateSession(CreateSessionRequest{})
	if err != nil {
		t.Fatal(err)
	}
	bs, err := binC.CreateSession(CreateSessionRequest{})
	if err != nil {
		t.Fatal(err)
	}

	recs := takeRecords(77, 200)
	for start := 0; start < len(recs); start += 20 {
		batch := recs[start : start+20]
		vectors, classes := toWire(batch)
		jc, err := jsonC.Classify(js.ID, vectors, start%40 == 0)
		if err != nil {
			t.Fatalf("json classify: %v", err)
		}
		bc, err := binC.Classify(bs.ID, vectors, start%40 == 0)
		if err != nil {
			t.Fatalf("binary classify: %v", err)
		}
		if !reflect.DeepEqual(jc.Predictions, bc.Predictions) || jc.MAPConcept != bc.MAPConcept {
			t.Fatalf("batch %d: codecs disagree: %+v vs %+v", start, jc, bc)
		}
		if (jc.Probabilities == nil) != (bc.Probabilities == nil) || !sameBits(jc.Probabilities, bc.Probabilities) {
			t.Fatalf("batch %d: probability bits diverge between codecs", start)
		}
		jo, err := jsonC.Observe(js.ID, vectors, classes)
		if err != nil {
			t.Fatalf("json observe: %v", err)
		}
		bo, err := binC.Observe(bs.ID, vectors, classes)
		if err != nil {
			t.Fatalf("binary observe: %v", err)
		}
		if !reflect.DeepEqual(jo, bo) {
			t.Fatalf("batch %d: observe responses diverge: %+v vs %+v", start, jo, bo)
		}
	}

	// Both sessions saw the same stream; their states must match bitwise.
	jst, err := jsonC.Info(js.ID)
	if err != nil {
		t.Fatal(err)
	}
	bst, err := binC.Info(bs.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !sameBits([][]float64{jst.Active}, [][]float64{bst.Active}) {
		t.Fatalf("final active probabilities diverge: %v vs %v", jst.Active, bst.Active)
	}

	// Error parity: a malformed binary body answers a JSON ErrorResponse
	// with 400, exactly like malformed JSON.
	resp, err := http.Post(ts.URL+"/v1/sessions/"+bs.ID+"/classify", BinaryContentType, bytes.NewReader([]byte("junk")))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed binary body answered %d, want 400", resp.StatusCode)
	}
	var eresp ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&eresp); err != nil || eresp.Error == "" {
		t.Fatalf("binary-request errors must still be JSON ErrorResponse (err=%v, body=%+v)", err, eresp)
	}
}

// TestBinaryAcceptNegotiation: a JSON request with
// Accept: application/x-hom-records gets a binary response.
func TestBinaryAcceptNegotiation(t *testing.T) {
	m := buildStaggerModel(t)
	s := New(m, Options{QueueDepth: 8, Workers: 1})
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		s.Close()
	}()
	c := NewClient(ts.URL, nil)
	sess, err := c.CreateSession(CreateSessionRequest{})
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(ClassifyRequest{Records: [][]float64{{0, 1, 2}}})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/sessions/"+sess.ID+"/classify", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", BinaryContentType)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if got := resp.Header.Get("Content-Type"); got != BinaryContentType {
		t.Fatalf("Accept negotiation answered Content-Type %q, want %q", got, BinaryContentType)
	}
	frame := make([]byte, 0, 64)
	buf := bytes.NewBuffer(frame)
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeBinaryClassifyResponse(buf.Bytes()); err != nil {
		t.Fatalf("negotiated binary response does not decode: %v", err)
	}
}

// FuzzBinaryRecords is the codec-parity fuzzer of the equivalence
// contract's wire half: an arbitrary binary frame and its JSON rendering,
// decoded by the server's JSON request decoder, must agree — either both
// decode to the identical record batch and identical decodeRecords
// verdict, or the frame is rejected outright.
func FuzzBinaryRecords(f *testing.F) {
	seed, _ := EncodeBinaryClassifyRequest(ClassifyRequest{Records: [][]float64{{0, 1, 2}, {2, 1, 0}}})
	f.Add(seed)
	nan, _ := EncodeBinaryClassifyRequest(ClassifyRequest{Records: [][]float64{{math.NaN(), math.Inf(1), -1}}})
	f.Add(nan)
	f.Add([]byte("HOMB\x01\x01\x00\x00\x00\x00\x00\x00"))
	schema := testModel().Schema
	var sc jsonScratch
	f.Fuzz(func(t *testing.T, frame []byte) {
		req, err := DecodeBinaryClassifyRequest(frame)
		if err != nil {
			return // rejected frames are out of scope; they must just not panic
		}
		// Re-encode: the codec must be lossless on everything it accepts.
		again, err := EncodeBinaryClassifyRequest(req)
		if err != nil {
			t.Fatalf("decoded frame does not re-encode: %v", err)
		}
		req2, err := DecodeBinaryClassifyRequest(again)
		if err != nil || !sameBits(req.Records, req2.Records) || req.Proba != req2.Proba {
			t.Fatalf("binary round trip lost information (err=%v)", err)
		}
		// JSON parity on the validation verdict, through the JSON request
		// decoder the server runs. JSON cannot carry NaN/Inf at all, so for
		// batches containing them only the shared decodeRecords rejection
		// is comparable — and it must reject.
		_, binErr := decodeRecords(schema, req.Records, nil)
		if jsonBody, err := json.Marshal(ClassifyRequest{Records: req.Records}); err == nil {
			jreq, err := decodeClassifyJSON(jsonBody, &sc)
			if err != nil {
				t.Fatalf("JSON decode of a finite batch failed: %v", err)
			}
			if !sameBits(jreq.Records, req.Records) {
				t.Fatal("JSON and binary decodes disagree on record bits")
			}
			_, jsonErr := decodeRecords(schema, jreq.Records, nil)
			if (binErr == nil) != (jsonErr == nil) {
				t.Fatalf("validation verdicts diverge: binary=%v json=%v", binErr, jsonErr)
			}
		} else if binErr == nil {
			t.Fatal("batch is unencodable as JSON (non-finite floats) but passed record validation")
		}
	})
}
