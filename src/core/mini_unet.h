/**
 * @file
 * MiniUnet: the historic small denoising model, now a preset spec plus
 * a thin compatibility wrapper over the graph runtime.
 *
 * The model itself lives in runtime/presets.h (miniUnetSpec) and runs
 * through runtime/compiled.h like every other spec; this wrapper keeps
 * the historic constructor-and-rollout surface for existing callers
 * and hands its CompiledModel to the serving layer via compiled().
 * Compiled execution is bitwise identical to the retained hand-wired
 * implementation (core/legacy_unet.h) in every mode, batch size and
 * thread count — the golden parity suite in tests/test_runtime.cc is
 * the proof.
 */
#ifndef DITTO_CORE_MINI_UNET_H
#define DITTO_CORE_MINI_UNET_H

#include <cstdint>
#include <span>
#include <vector>

#include "core/run_mode.h"
#include "runtime/compiled.h"
#include "runtime/presets.h"

namespace ditto {

/** The MiniUnet preset, compiled (see the file comment). */
class MiniUnet
{
  public:
    using DittoState = CompiledModel::DittoState;

    explicit MiniUnet(MiniUnetConfig cfg)
        : cfg_(cfg), model_(compile(miniUnetSpec(cfg)))
    {}

    const MiniUnetConfig &config() const { return cfg_; }

    /** The compiled program (the serving layer's model interface). */
    const CompiledModel &compiled() const { return model_; }

    /** Full reverse diffusion from the model's own seeded noise. */
    RolloutResult
    rollout(RunMode mode) const
    {
        return model_.rollout(mode);
    }

    /** Reverse diffusion from caller noise; steps 0 = configured. */
    RolloutResult
    rollout(RunMode mode, const FloatTensor &noise, int steps = 0) const
    {
        return model_.rollout(mode, noise, steps);
    }

    /** Deterministic per-request initial noise. */
    FloatTensor
    requestNoise(uint64_t seed) const
    {
        return model_.requestNoise(seed);
    }

    /** One denoising-model evaluation (predicted noise). */
    FloatTensor
    forward(const FloatTensor &x, RunMode mode, DittoState *state,
            OpCounts *counts) const
    {
        return model_.forward(x, mode, state, counts);
    }

    /** One evaluation for a stacked batch of requests. */
    FloatTensor
    forwardBatch(const FloatTensor &x, RunMode mode,
                 DittoState *state, OpCounts *counts) const
    {
        return model_.forwardBatch(x, mode, state, counts);
    }

    /** N full reverse diffusions as one batch. */
    std::vector<RolloutResult>
    rolloutBatch(RunMode mode, std::span<const FloatTensor> noises) const
    {
        return model_.rolloutBatch(mode, noises);
    }

  private:
    MiniUnetConfig cfg_;
    CompiledModel model_;
};

} // namespace ditto

#endif // DITTO_CORE_MINI_UNET_H
