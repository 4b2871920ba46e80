package manager

import (
	"context"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/cpg"
)

// Worker runs the worker half of the pipe protocol until r reaches EOF: read
// the init frame, then serve shard→artifact exchanges in lockstep. Workers
// hold no state between shards beyond the shared header map and the front
// end's internal caches, so the manager may hand any shard to any worker in
// any order.
func Worker(r io.Reader, w io.Writer) error {
	first, err := readFrame(r)
	if err != nil {
		return fmt.Errorf("manager worker: reading init: %w", err)
	}
	init, err := decodeInit(first)
	if err != nil {
		return fmt.Errorf("manager worker: decoding init: %w", err)
	}
	req := core.Request{Headers: init.Headers}
	for {
		frame, err := readFrame(r)
		if err == io.EOF {
			return nil // clean shutdown: manager closed our stdin
		}
		if err != nil {
			return fmt.Errorf("manager worker: reading shard: %w", err)
		}
		sh, err := decodeShard(frame)
		if err != nil {
			return fmt.Errorf("manager worker: decoding shard: %w", err)
		}
		art, err := core.LocalPass(context.Background(), req, sh.Sources)
		if err != nil {
			return fmt.Errorf("manager worker: shard %d: %w", sh.ID, err)
		}
		reply := encodeArtifact(artifactMsg{ID: sh.ID, Payload: cpg.EncodeShardArtifact(art)})
		if err := writeFrame(w, reply); err != nil {
			return fmt.Errorf("manager worker: writing artifact %d: %w", sh.ID, err)
		}
	}
}
