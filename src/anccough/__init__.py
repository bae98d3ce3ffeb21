"""Subject-aware cough event detection on dual-channel ANC earbud audio."""

from .augment import AugmentPlan, apply_plan, load_noise_pool
from .dsp import (
    SUPPORTED_RATES,
    DualChannelRecording,
    DualChannelWindow,
    decimate,
    load_recording,
    normalize,
    save_recording,
    slice_windows,
)
from .evalkit import MetricsReport, ablation, evaluate, resource_table, resource_table_csv
from .model_io import load_model, save_model
from .net import ModelSpec, default_spec, forward, init_params
from .pipeline import (
    LabeledWindow,
    SplitConfig,
    TrainConfig,
    default_split,
    label_windows,
    split_by_user,
    train,
)
from .profile import ResourceProfile, profile
from .stream import DetectionEvent, DetectorState, StreamingDetector, detect
from .synth import (
    AnnotatedSegment,
    DatasetManifest,
    GeneratorConfig,
    generate_dataset,
    generate_noise_pool,
    read_manifest,
    render_environment,
    render_subject,
    synth_cough,
    write_manifest,
)

__version__ = "0.1.0"
