package main

import (
	"fmt"
	"path/filepath"
	"strconv"
)

// writeTree writes the workload's refgen tree at scale into the new
// directory dir and returns how long refgen took.
func (b *bench) writeTree(dir string, scale int) (proc, error) {
	quiesce()
	return run(filepath.Join(b.bin, "refgen"), "-out", dir,
		"-seed", strconv.FormatInt(b.seed, 10), "-scale", strconv.Itoa(scale))
}

// setupTree writes the workload's tree b.size.setups times, each into a new
// directory (deleting one in between would slow the next write), and
// returns the last tree and the median write time.
func (b *bench) setupTree(scale int) (string, float64, error) {
	var tree string
	var times []float64
	for i := 0; i < b.size.setups; i++ {
		tree = filepath.Join(b.work, fmt.Sprintf("tree%d", i))
		p, err := b.writeTree(tree, scale)
		if err != nil {
			return "", 0, err
		}
		times = append(times, p.wall.Seconds())
	}
	return tree, median(times), nil
}

// runScan is the batch verdict on a kernel-sized tree: cold, uncached
// refcheck processes on one refgen tree. Set-up is writing the tree.
func runScan(b *bench) (*result, error) {
	tree, setup, err := b.setupTree(b.size.scanScale)
	if err != nil {
		return nil, err
	}
	truth, err := readTruth(filepath.Join(tree, "GROUND_TRUTH.tsv"))
	if err != nil {
		return nil, err
	}
	res := &result{}
	if b.trace {
		if err := b.traceLayers(res, tree, truth); err != nil {
			return nil, err
		}
		zeroCache(res)
		zeroServe(res)
		return res, nil
	}

	var walls []float64
	rss := 0.0
	for i := 0; i < b.size.scans; i++ {
		quiesce()
		p, err := run(filepath.Join(b.bin, "refcheck"), tree)
		if err == nil {
			err = checkText(truth, p.stdout)
		}
		res.op(err)
		if err != nil {
			continue
		}
		walls = append(walls, p.wall.Seconds())
		rss = max(rss, p.rssMB)
	}
	if len(walls) == 0 {
		return nil, fmt.Errorf("every scan failed: %s", res.failures[0])
	}
	res.endToEnd(setup, walls, float64(len(walls))/sum(walls), rss)
	res.show("setup_s", setup, "s")
	res.show("scan_s", median(walls), "s")
	res.show("peak_rss_mb", rss, "MB")
	res.show("cache_disk_mb", 0, "MB")
	return res, nil
}
