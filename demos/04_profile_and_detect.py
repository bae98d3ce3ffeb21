# Resource accounting and continuous detection.
#
# Part 1 prints the per-variant compute/space table: FLOPs per 0.5 s window
# (2 per multiply-accumulate, convolutions and dense layers only) and the
# on-chip space a double-buffered executor needs (weights + input buffer +
# the largest two consecutive activations, 32-bit).
#
# Part 2 runs the streaming detector window by window over a recording and
# shows that it reproduces the batch path exactly with constant state.

import numpy as np

from anccough import default_spec, detect, init_params, profile, slice_windows
from anccough.dsp import DualChannelRecording
from anccough.evalkit import resource_table_csv
from anccough.stream import StreamingDetector
from anccough.synth import render_subject, synth_cough

print(resource_table_csv())

rate = 8000
spec = default_spec(rate)
prof = profile(spec)
print(f"8 kHz variant: {prof.param_count} parameters, "
      f"{prof.flops_m:.2f} MFLOPs/window, {prof.space_kb:.0f} kB total\n")

# a 20 s recording with three injected coughs (untrained weights here; the
# point is the plumbing, not the scores)
rng = np.random.default_rng(3)
bed = (2e-3 * rng.standard_normal(20 * rate)).astype(np.float32)
audio = np.stack([bed, bed.copy()])
for at_s in (3.1, 9.6, 15.2):
    cough = render_subject(synth_cough(0.4, rate, rng), rng, rate_hz=rate)
    i0 = int(at_s * rate)
    audio[:, i0:i0 + cough.shape[1]] += cough
rec = DualChannelRecording(audio, rate)

params = init_params(spec, seed=1)
events = detect(spec, params, rec, threshold=0.6)
print(f"batch detect: {len(events)} events")

detector = StreamingDetector(spec, params, threshold=0.6)
state = detector.new_state()
streamed = []
for window in slice_windows(rec):
    state, event = detector.step(state, window)
    if event:
        streamed.append(event)
state, event = detector.flush(state)
if event:
    streamed.append(event)

print(f"streaming:    {len(streamed)} events; identical to batch: {streamed == events}")
print(f"state record stays small: {state}")
for e in events[:5]:
    print(f"  [{e.start_s:5.1f}, {e.end_s:5.1f}) s  "
          f"confidence {e.mean_confidence:.3f}  windows {e.window_count}")
