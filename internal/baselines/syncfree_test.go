package baselines

import (
	"fmt"
	"math"
	"testing"

	"xmoe/internal/model"
	"xmoe/internal/parallel"
	"xmoe/internal/topology"
)

// syncFreeSpec is a 16-GPU SmallSR point with both gradient-sync groups
// populated (EP 8 leaves expert-DP pairs; dense DP spans the world) and
// several accumulation micro-steps.
func syncFreeSpec(sys Config, tp, zeroStage int, actCkpt bool, bucket int64) RunSpec {
	m := topology.Frontier()
	return RunSpec{
		Shape: model.SmallSR(), Machine: m, World: 16,
		Plan: parallel.Plan{World: 16, TP: tp, EP: 8,
			Placement: sys.Placement, SSMB: sys.SSMB, ZeROStage: zeroStage},
		MicroBatch: 1, GlobalBatch: 64, Seed: 11, Congestion: true,
		ActCkpt: actCkpt, BucketBytes: bucket, SkipMemCheck: true,
	}
}

// syncFreeSystems are the pft, padded and rbd transports; the X-MoE
// (rbd) preset is the SSMB system.
func syncFreeSystems() map[string]Config {
	m := topology.Frontier()
	pft := For(XMoE, m)
	pft.RBD = false
	return map[string]Config{"pft": pft, "padded": For(DeepSpeedMoE, m), "rbd": For(XMoE, m)}
}

// At TP=1 the sync-free layer time SimulateStep reads off the synced run
// (the slowest rank's clock before its sync Waits) must equal a real
// sync-free rerun bit for bit.
func TestSyncFreeWallDerivedAtTP1(t *testing.T) {
	for name, sys := range syncFreeSystems() {
		for _, ckpt := range []bool{false, true} {
			for _, z := range []int{1, 2} {
				for _, bucket := range []int64{0, 8 << 20} {
					spec := syncFreeSpec(sys, 1, z, ckpt, bucket)
					t.Run(fmt.Sprintf("%s/ckpt=%v/zero=%d/bucket=%d", name, ckpt, z, bucket), func(t *testing.T) {
						if ms, withSync := accumulation(spec); ms < 2 || !withSync {
							t.Fatalf("spec must accumulate with overlapped sync: microSteps=%d withSync=%v", ms, withSync)
						}
						synced := runFullLayer(sys, spec, true)
						plain := runFullLayer(sys, spec, false)
						if synced.err != nil || plain.err != nil {
							t.Fatalf("run errors: %v / %v", synced.err, plain.err)
						}
						if math.Float64bits(synced.preWaitWall) != math.Float64bits(plain.wall) {
							t.Fatalf("derived sync-free wall %v != rerun wall %v", synced.preWaitWall, plain.wall)
						}
						if synced.preWaitWall > synced.wall {
							t.Fatalf("pre-Wait wall %v exceeds synced wall %v", synced.preWaitWall, synced.wall)
						}
					})
				}
			}
		}
	}
}

// At TP>1 the blocking TP all-reduce queues behind the in-flight sync, so
// the pre-Wait clock no longer prices the sync-free layer: SimulateStep
// must keep rerunning it.
func TestSimulateStepRerunsSyncFreeLayerAtTP2(t *testing.T) {
	sys := syncFreeSystems()["pft"]
	spec := syncFreeSpec(sys, 2, 1, false, 0)
	synced := runFullLayer(sys, spec, true)
	plain := runFullLayer(sys, spec, false)
	if synced.err != nil || plain.err != nil {
		t.Fatalf("run errors: %v / %v", synced.err, plain.err)
	}
	if synced.preWaitWall == plain.wall {
		t.Fatal("pre-Wait wall equals the rerun at TP=2; the case no longer tells the paths apart")
	}
	got := SimulateStep(sys, spec)
	if got.Err != nil {
		t.Fatal(got.Err)
	}
	want := iterSeconds(spec, synced.cluster.Net, synced.wall, plain.wall)
	if math.Float64bits(got.IterSeconds) != math.Float64bits(want) {
		t.Fatalf("IterSeconds %v, want %v rebuilt from an explicit sync-free rerun", got.IterSeconds, want)
	}
}
