# The deterministic signal path: decimate, window, normalize, augment.
#
# Recordings are generated at 48 kHz; every model variant consumes a fixed
# 0.5 s window at its own rate. This script walks one recording through the
# whole path and then shows the augmentation stages used to expand a
# training set.

import numpy as np

from anccough import AugmentPlan, apply_plan, decimate, normalize, slice_windows
from anccough.augment import add_white_noise, gain, pitch_shift
from anccough.dsp import DualChannelRecording
from anccough.synth import generate_noise_pool, render_subject, synth_cough

rng = np.random.default_rng(0)

# build a 3 s recording: a cough at 1.2 s over a quiet noise bed
rate = 48000
bed = (2e-3 * rng.standard_normal(3 * rate)).astype(np.float32)
audio = np.stack([bed, bed.copy()])
cough = render_subject(synth_cough(0.4, rate, rng), rng, rate_hz=rate)
audio[:, int(1.2 * rate):int(1.2 * rate) + cough.shape[1]] += cough
rec = DualChannelRecording(audio, rate)

# 48 kHz -> 8 kHz: anti-aliased FIR decimation (Kaiser sinc, 60 dB stopband)
rec8 = decimate(rec, 8000)
print(f"decimated: {len(rec)} samples @48k -> {len(rec8)} @8k")

# non-overlapping 0.5 s windows; the trailing remainder is dropped
windows = slice_windows(rec8)
print(f"windows: {len(windows)} x {windows[0].data.shape}")

# the cough sits in the window starting at 1.0 s
hot = windows[2]
print(f"window@{hot.start_s}s peak {np.abs(hot.data).max():.3f} "
      f"vs window@0.0s peak {np.abs(windows[0].data).max():.4f}")

# per-channel standardization makes the detector gain-invariant
norm = normalize(hot)
print(f"normalized: mean {norm.data[0].mean():+.2e}, std {norm.data[0].std():.4f}")

# individual augmentation stages
louder = gain(hot, +6.0)
shifted_pitch = pitch_shift(hot, -2.0)
noisy = add_white_noise(hot, 15.0, np.random.default_rng(1))
print(f"gain +6dB peak {np.abs(louder.data).max():.3f}; "
      f"pitch -2st peak {np.abs(shifted_pitch.data).max():.3f}; "
      f"+noise @15dB SNR peak {np.abs(noisy.data).max():.3f}")

# the full three-stage plan: waveform edits, then noise, then normalization.
# Deterministic: same plan and inputs give byte-identical output.
plan = AugmentPlan(copies_per_clip=2, seed=7)
pool = generate_noise_pool(8, 8000, seed=7)
augmented = apply_plan(windows, plan, pool)
print(f"augmented: {len(windows)} windows -> {len(augmented)} "
      f"(original + {plan.copies_per_clip} variants each)")
