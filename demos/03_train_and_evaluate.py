# Train the 8 kHz variant on a small synthetic study and score it.
#
# Splits are cut by user identity (cross-user evaluation): no user's audio is
# shared between train, validation, and test. Training early-stops on
# validation F1-1 and returns the best epoch's parameters.
#
# This small four-user run takes a couple of minutes on a laptop; the full
# ten-user study lives in tests/test_acceptance.py.

import atexit
import shutil
import tempfile
from pathlib import Path

from anccough import (
    AugmentPlan,
    SplitConfig,
    TrainConfig,
    default_spec,
    evaluate,
    generate_dataset,
    save_model,
    split_by_user,
    train,
)
from anccough.synth import generate_noise_pool

root = Path(tempfile.mkdtemp(prefix="anccough_demo_"))
atexit.register(shutil.rmtree, root)  # the dataset goes when the demo ends
manifest = generate_dataset(root, n_users=4, seed=11)

split = SplitConfig(train_users=(0, 1), val_users=(2,), test_users=(3,))
train_set, val_set, test_set = split_by_user(manifest, split, root, 8000)
print(f"windows: train {len(train_set)}, val {len(val_set)}, test {len(test_set)}")

spec = default_spec(8000)
cfg = TrainConfig(epochs_max=10, batch_size=32, learning_rate=1e-3,
                  early_stop_patience=3, seed=0, class_weighting=True)
plan = AugmentPlan(copies_per_clip=1, seed=0)
pool = generate_noise_pool(16, 8000, seed=0)

params, history = train(train_set, val_set, spec, cfg, plan=plan, noise_pool=pool)
for row in history:
    print(f"epoch {row['epoch']:2d}  loss {row['train_loss']:.4f}  "
          f"val acc1 {row['val_acc1']:.4f}  val f1_1 {row['val_f1_1']:.4f}")

report = evaluate(spec, params, test_set)
print(f"\ntest: acc1 {report.acc1:.4f}  f1_1 {report.f1_1:.4f}  "
      f"acc2 {report.acc2:.4f}  f1_2 {report.f1_2:.4f}")
print(report.to_text())

model_path = root / "model_8k.ecn1"
save_model(spec, params, model_path)
print(f"saved {model_path}")
