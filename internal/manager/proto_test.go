package manager

import (
	"bytes"
	"io"
	"reflect"
	"testing"

	"repro/internal/cpg"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{{1, 2, 3}, {}, bytes.Repeat([]byte{0xAB}, 1000)}
	for _, p := range payloads {
		if err := writeFrame(&buf, p); err != nil {
			t.Fatal(err)
		}
	}
	for i, p := range payloads {
		got, err := readFrame(&buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, p) {
			t.Errorf("frame %d: %v != %v", i, got, p)
		}
	}
	if _, err := readFrame(&buf); err != io.EOF {
		t.Errorf("clean boundary: err = %v, want io.EOF", err)
	}

	// A frame truncated mid-body must not read as EOF.
	buf.Reset()
	if err := writeFrame(&buf, []byte{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	trunc := bytes.NewReader(buf.Bytes()[:buf.Len()-2])
	if _, err := readFrame(trunc); err != io.ErrUnexpectedEOF {
		t.Errorf("truncated body: err = %v, want ErrUnexpectedEOF", err)
	}

	// A hostile length prefix must be rejected, not allocated.
	hostile := []byte{0xFF, 0xFF, 0xFF, 0xFF}
	if _, err := readFrame(bytes.NewReader(hostile)); err == nil || err == io.EOF {
		t.Errorf("hostile length: err = %v, want limit error", err)
	}
}

func TestInitMsgRoundTrip(t *testing.T) {
	for _, m := range []initMsg{
		{Headers: map[string]string{"a.h": "x", "b.h": "y"}},
		{},
	} {
		got, err := decodeInit(encodeInit(m))
		if err != nil {
			t.Fatalf("%+v: %v", m, err)
		}
		if !reflect.DeepEqual(got, m) {
			t.Errorf("round trip %+v -> %+v", m, got)
		}
	}
	if _, err := decodeInit([]byte{kShard}); err == nil {
		t.Error("wrong kind accepted as init")
	}
	if _, err := decodeInit(nil); err == nil {
		t.Error("empty payload accepted as init")
	}
}

func TestShardMsgRoundTrip(t *testing.T) {
	m := shardMsg{ID: 7, Sources: []cpg.Source{
		{Path: "a.c", Content: "int x;"},
		{Path: "b.c", Content: ""},
	}}
	got, err := decodeShard(encodeShard(m))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Errorf("round trip %+v -> %+v", m, got)
	}
	enc := encodeShard(m)
	for cut := 0; cut < len(enc); cut++ {
		if _, err := decodeShard(enc[:cut]); err == nil {
			t.Fatalf("cut=%d decoded cleanly", cut)
		}
	}
}

func TestArtifactMsgRoundTrip(t *testing.T) {
	m := artifactMsg{ID: 3, Payload: []byte{9, 8, 7}}
	got, err := decodeArtifact(encodeArtifact(m))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Errorf("round trip %+v -> %+v", m, got)
	}
	if _, err := decodeArtifact([]byte{kArtifact, 1}); err == nil {
		t.Error("short artifact frame accepted")
	}
	if _, err := decodeArtifact([]byte{kInit, 0, 0, 0, 0}); err == nil {
		t.Error("wrong kind accepted as artifact")
	}
}
