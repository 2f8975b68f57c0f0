"""Shared fixtures for the test suite.

Expensive artifacts (pre-trained tiny LLM, small datasets, simulators) are
built once per session and reused across test modules.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from repro.abr import ABR_SETTINGS, build_setting
from repro.cjs import CJS_SETTINGS, build_workload
from repro.llm import build_llm
from repro.vp import VP_SETTINGS, ViewportDataset


@pytest.fixture(scope="session")
def tiny_llm():
    """A small pre-trained LLM substitute with LoRA adapters."""
    return build_llm("tiny-test", lora_rank=4, pretrained=True, pretrain_steps=25, seed=0)


@pytest.fixture(scope="session")
def tiny_llm_plain():
    """A small pre-trained LLM substitute without LoRA (for LM-head paths)."""
    return build_llm("tiny-test", lora_rank=0, pretrained=True, pretrain_steps=25, seed=1)


@pytest.fixture(scope="session")
def vp_data():
    """Small VP dataset: (setting, train samples, test samples)."""
    setting = VP_SETTINGS["default_test"]
    dataset = ViewportDataset("jin2022", seed=0, num_videos=2, num_viewers=4, video_seconds=30)
    train_traces, _, test_traces = dataset.split_traces(seed=0)
    train = dataset.windows_from_traces(train_traces, setting, stride_steps=5)
    test = dataset.windows_from_traces(test_traces, setting, stride_steps=10)
    return setting, train, test


@pytest.fixture(scope="session")
def abr_setup():
    """Small ABR setup: (video, train traces, test traces)."""
    video, train_traces = build_setting(ABR_SETTINGS["default_train"], num_traces=4,
                                        num_chunks=24, trace_duration=200.0, seed=0)
    _, test_traces = build_setting(ABR_SETTINGS["default_test"], num_traces=3,
                                   num_chunks=24, trace_duration=200.0, seed=50)
    return video, train_traces, test_traces


@pytest.fixture(scope="session")
def cjs_setup():
    """Small CJS setup: (train workloads, test jobs, num executors)."""
    setting = CJS_SETTINGS["default_train"]
    train_workloads = [build_workload(setting, seed=s)[0][:8] for s in range(2)]
    test_jobs, executors = build_workload(CJS_SETTINGS["default_test"], seed=11)
    return train_workloads, test_jobs[:8], executors


def _check_export_surface(owner, export, containers=None, derived=()):
    """``export`` spells every field of dataclass ``owner`` as JSON.

    Builds an ``owner`` with a different value in every field (``containers``
    for the fields that are not plain numbers), so that a field exported
    under a neighbour's name shows, then checks that every field appears
    under its own name with its own value, that the only other keys are the
    ``derived`` properties, and that ``json.dumps`` round-trips the whole.
    """
    containers = containers or {}
    instance = owner(**containers, **{
        f.name: 100 + i for i, f in enumerate(dataclasses.fields(owner))
        if f.name not in containers})
    exported = export(instance)
    fields = {f.name: getattr(instance, f.name)
              for f in dataclasses.fields(owner)}
    assert set(exported) == set(fields) | set(derived)
    assert json.loads(json.dumps(exported)) == exported
    for name, value in fields.items():
        assert exported[name] == json.loads(json.dumps(value)), name
    for name in derived:
        assert exported[name] == getattr(instance, name), name


@pytest.fixture(scope="session")
def check_export_surface():
    """The contract of the ``to_dict()`` / ``report()`` exports."""
    return _check_export_surface
