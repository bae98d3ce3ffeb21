# Generate a small synthetic dual-channel dataset and look inside it.
#
# Each recording carries two time-aligned channels: the feed-forward mic on
# the earbud's outer face (channel 0) and the feedback mic inside the ear
# canal (channel 1). Subject sounds arrive louder on the feedback mic
# (body conduction); environmental sounds arrive 15-30 dB quieter there
# (passive isolation). That contrast is what the detector learns to use.

import atexit
import shutil
import tempfile
from pathlib import Path

import numpy as np

from anccough import generate_dataset, load_recording
from anccough.synth import ENV_COUGH_LABEL, SUBJECT_COUGH_LABELS, read_annotations

root = Path(tempfile.mkdtemp(prefix="anccough_demo_"))
atexit.register(shutil.rmtree, root)  # the dataset goes when the demo ends
manifest = generate_dataset(root, n_users=2, seed=42)
print(f"wrote {len(manifest.entries)} recordings under {root}\n")

# Every annotated cough should show the channel contrast. Measure a few.
print(f"{'label':28s} {'ff RMS':>9s} {'fb RMS':>9s}  ratio")
shown = 0
for entry in manifest.entries:
    if entry.environment != "env_cough":
        continue
    rec = load_recording(root / entry.wav_path)
    for seg in read_annotations(root / entry.annotation_path):
        if seg.label not in SUBJECT_COUGH_LABELS and seg.label != ENV_COUGH_LABEL:
            continue
        i0 = int(seg.start_s * rec.sample_rate_hz)
        i1 = int(seg.end_s * rec.sample_rate_hz)
        rms = np.sqrt(np.mean(rec.data[:, i0:i1].astype(np.float64) ** 2, axis=1))
        print(f"{seg.label:28s} {rms[0]:9.5f} {rms[1]:9.5f}  "
              f"{20 * np.log10(rms[1] / rms[0]):+6.1f} dB (fb vs ff)")
        shown += 1
    if shown > 12:
        break

print("\nSubject coughs land positive (feedback louder); environmental")
print("coughs land strongly negative. The separation survives windowing and")
print("per-channel normalization only through the inter-channel structure,")
print("which is exactly what the first 2-D convolution layer sees.")
