// Package manager runs the partition-then-exchange pipeline across worker
// processes, syz-manager style: the manager owns the corpus and the work
// queue, workers are stateless LocalPass executors fed over pipes, and a
// dead worker's in-flight shard is simply re-queued — any shard may run on
// any worker (or inline in the manager) because shard-local passes are
// DB-independent by construction (see core.LocalPass).
package manager

import (
	"encoding/binary"
	"fmt"
	"io"
	"sort"

	"repro/internal/bincodec"
	"repro/internal/cpg"
)

// The wire protocol is deliberately minimal: length-prefixed frames over the
// worker's stdin/stdout, each framing one bincodec-encoded message. The
// conversation is lockstep per worker — init once, then shard/artifact
// pairs until stdin closes. There is no error message kind: a worker that
// cannot produce an artifact exits nonzero, and the manager treats any
// read/decode failure as a worker death (re-queue and move on), so protocol
// errors and crashes share one recovery path.
const (
	kInit     = 1 // manager→worker: shared header map
	kShard    = 2 // manager→worker: shard id + sources
	kArtifact = 3 // worker→manager: shard id + encoded ShardArtifact
)

// maxFrame bounds a frame read so a corrupt length prefix cannot trigger a
// giant allocation. Artifacts carry whole token streams, so the bound is
// generous.
const maxFrame = 1 << 30

func writeFrame(w io.Writer, payload []byte) error {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readFrame returns io.EOF only on a clean boundary (no partial header);
// a frame truncated mid-read surfaces as io.ErrUnexpectedEOF.
func readFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > maxFrame {
		return nil, fmt.Errorf("manager: frame length %d exceeds limit", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return buf, nil
}

type initMsg struct {
	Headers map[string]string
}

func encodeInit(m initMsg) []byte {
	w := bincodec.NewWriter(64)
	w.U8(kInit)
	keys := make([]string, 0, len(m.Headers))
	for k := range m.Headers {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	w.U32(uint32(len(keys)))
	for _, k := range keys {
		w.String(k)
		w.String(m.Headers[k])
	}
	return w.Bytes()
}

func decodeInit(b []byte) (initMsg, error) {
	r := bincodec.NewReader(b)
	if r.U8() != kInit {
		r.Fail()
		return initMsg{}, r.Err()
	}
	var m initMsg
	n := r.Count()
	if n > 0 {
		m.Headers = make(map[string]string, n)
	}
	for i := 0; i < n && r.Err() == nil; i++ {
		k := r.String()
		m.Headers[k] = r.String()
	}
	if err := r.Done(); err != nil {
		return initMsg{}, err
	}
	return m, nil
}

type shardMsg struct {
	ID      int
	Sources []cpg.Source
}

func encodeShard(m shardMsg) []byte {
	sz := 16
	for _, s := range m.Sources {
		sz += len(s.Path) + len(s.Content) + 16
	}
	w := bincodec.NewWriter(sz)
	w.U8(kShard)
	w.U32(uint32(m.ID))
	w.U32(uint32(len(m.Sources)))
	for _, s := range m.Sources {
		w.String(s.Path)
		w.String(s.Content)
	}
	return w.Bytes()
}

func decodeShard(b []byte) (shardMsg, error) {
	r := bincodec.NewReader(b)
	if r.U8() != kShard {
		r.Fail()
		return shardMsg{}, r.Err()
	}
	m := shardMsg{ID: int(r.U32())}
	n := r.Count()
	for i := 0; i < n && r.Err() == nil; i++ {
		m.Sources = append(m.Sources, cpg.Source{Path: r.String(), Content: r.String()})
	}
	if err := r.Done(); err != nil {
		return shardMsg{}, err
	}
	return m, nil
}

type artifactMsg struct {
	ID      int
	Payload []byte // EncodeShardArtifact bytes, decoded lazily by the manager
}

// artifactHdrLen is the fixed prefix before the artifact payload: kind byte
// and shard id.
const artifactHdrLen = 1 + 4

func encodeArtifact(m artifactMsg) []byte {
	w := bincodec.NewWriter(artifactHdrLen + len(m.Payload))
	w.U8(kArtifact)
	w.U32(uint32(m.ID))
	w.Raw(m.Payload)
	return w.Bytes()
}

func decodeArtifact(b []byte) (artifactMsg, error) {
	r := bincodec.NewReader(b)
	if r.U8() != kArtifact {
		r.Fail()
		return artifactMsg{}, r.Err()
	}
	m := artifactMsg{ID: int(r.U32())}
	if r.Err() != nil {
		return artifactMsg{}, r.Err()
	}
	m.Payload = b[artifactHdrLen:]
	return m, nil
}
