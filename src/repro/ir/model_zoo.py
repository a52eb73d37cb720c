"""Reference models used throughout the VEDLIoT evaluation.

The paper (Sec. II-C) benchmarks accelerators with ResNet50, MobileNetV3 and
YoloV4.  This module builds faithful-topology IR graphs for those networks
(randomly initialized — the evaluation measures compute behaviour, not task
accuracy) plus several small networks sized for the reference executor and
the use-case applications (motor monitoring, arc detection, smart mirror).

All builders accept a ``batch`` argument because the paper sweeps batch
size 1/4/8 explicitly (Fig. 4).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from .builder import GraphBuilder
from .graph import Graph

ModelFactory = Callable[..., Graph]

_ZOO: Dict[str, ModelFactory] = {}


def register_model(name: str):
    """Decorator registering a model factory under ``name``."""

    def deco(fn: ModelFactory) -> ModelFactory:
        if name in _ZOO:
            raise ValueError(f"model {name!r} already registered")
        _ZOO[name] = fn
        return fn

    return deco


def available_models() -> List[str]:
    return sorted(_ZOO)


def build_model(name: str, **kwargs) -> Graph:
    """Instantiate a registered model by name."""
    try:
        factory = _ZOO[name]
    except KeyError:
        raise KeyError(
            f"unknown model {name!r}; available: {available_models()}"
        ) from None
    return factory(**kwargs)


# ---------------------------------------------------------------------------
# ResNet50
# ---------------------------------------------------------------------------

def _bottleneck(b: GraphBuilder, x: str, mid: int, out: int,
                stride: int, name: str) -> str:
    """ResNet bottleneck: 1x1 -> 3x3 -> 1x1 with projection shortcut."""
    identity = x
    in_channels = b.spec(x).shape[1]
    y = b.conv_bn_act(x, mid, 1, name=f"{name}_a")
    y = b.conv_bn_act(y, mid, 3, stride=stride, padding=1, name=f"{name}_b")
    y = b.conv_bn_act(y, out, 1, act="identity", name=f"{name}_c")
    if stride != 1 or in_channels != out:
        identity = b.conv_bn_act(x, out, 1, stride=stride, act="identity",
                                 name=f"{name}_proj")
    y = b.add(y, identity, name=f"{name}_add")
    return b.relu(y, name=f"{name}_relu")


@register_model("resnet50")
def resnet50(batch: int = 1, image_size: int = 224, num_classes: int = 1000,
             seed: int = 0) -> Graph:
    """ResNet50 (He et al.) — ~25.5 M parameters at 1000 classes."""
    b = GraphBuilder("resnet50", seed=seed)
    x = b.input("input", (batch, 3, image_size, image_size))
    x = b.conv_bn_act(x, 64, 7, stride=2, padding=3, name="stem")
    x = b.maxpool2d(x, 3, stride=2, padding=1, name="stem_pool")
    stage_cfg = [
        # (blocks, mid channels, out channels, first stride)
        (3, 64, 256, 1),
        (4, 128, 512, 2),
        (6, 256, 1024, 2),
        (3, 512, 2048, 2),
    ]
    for stage, (blocks, mid, out, stride) in enumerate(stage_cfg, start=1):
        for block in range(blocks):
            x = _bottleneck(b, x, mid, out, stride if block == 0 else 1,
                            name=f"s{stage}_b{block}")
    x = b.global_avgpool2d(x, name="gap")
    x = b.flatten(x, name="flat")
    x = b.dense(x, num_classes, name="fc")
    x = b.softmax(x, name="probs")
    g = b.finish(x)
    g.metadata.update(model="resnet50", task="classification",
                      image_size=image_size, num_classes=num_classes)
    return g


# ---------------------------------------------------------------------------
# MobileNetV3
# ---------------------------------------------------------------------------

def _se_block(b: GraphBuilder, x: str, name: str) -> str:
    """Squeeze-and-excitation: global pool -> 1x1 reduce -> 1x1 expand -> scale."""
    channels = b.spec(x).shape[1]
    squeeze = max(8, channels // 4)
    s = b.global_avgpool2d(x, name=f"{name}_gap")
    s = b.conv2d(s, squeeze, 1, name=f"{name}_fc1")
    s = b.relu(s, name=f"{name}_relu")
    s = b.conv2d(s, channels, 1, name=f"{name}_fc2")
    s = b.activation(s, "hardsigmoid", name=f"{name}_gate")
    return b.mul(x, s, name=f"{name}_scale")


def _inverted_residual(b: GraphBuilder, x: str, expand: int, out: int,
                       kernel: int, stride: int, use_se: bool, act: str,
                       name: str) -> str:
    in_channels = b.spec(x).shape[1]
    identity = x
    y = x
    if expand != in_channels:
        y = b.conv_bn_act(y, expand, 1, act=act, name=f"{name}_expand")
    y = b.conv_bn_act(y, expand, kernel, stride=stride,
                      padding=kernel // 2, groups=expand, act=act,
                      name=f"{name}_dw")
    if use_se:
        y = _se_block(b, y, name=f"{name}_se")
    y = b.conv_bn_act(y, out, 1, act="identity", name=f"{name}_project")
    if stride == 1 and in_channels == out:
        y = b.add(y, identity, name=f"{name}_add")
    return y


# MobileNetV3-Large configuration (Howard et al., Table 1):
# kernel, expansion, out channels, SE, activation, stride
_MOBILENETV3_LARGE = [
    (3, 16, 16, False, "relu", 1),
    (3, 64, 24, False, "relu", 2),
    (3, 72, 24, False, "relu", 1),
    (5, 72, 40, True, "relu", 2),
    (5, 120, 40, True, "relu", 1),
    (5, 120, 40, True, "relu", 1),
    (3, 240, 80, False, "hardswish", 2),
    (3, 200, 80, False, "hardswish", 1),
    (3, 184, 80, False, "hardswish", 1),
    (3, 184, 80, False, "hardswish", 1),
    (3, 480, 112, True, "hardswish", 1),
    (3, 672, 112, True, "hardswish", 1),
    (5, 672, 160, True, "hardswish", 2),
    (5, 960, 160, True, "hardswish", 1),
    (5, 960, 160, True, "hardswish", 1),
]

_MOBILENETV3_SMALL = [
    (3, 16, 16, True, "relu", 2),
    (3, 72, 24, False, "relu", 2),
    (3, 88, 24, False, "relu", 1),
    (5, 96, 40, True, "hardswish", 2),
    (5, 240, 40, True, "hardswish", 1),
    (5, 240, 40, True, "hardswish", 1),
    (5, 120, 48, True, "hardswish", 1),
    (5, 144, 48, True, "hardswish", 1),
    (5, 288, 96, True, "hardswish", 2),
    (5, 576, 96, True, "hardswish", 1),
    (5, 576, 96, True, "hardswish", 1),
]


def _mobilenet_v3(name: str, cfg, last_conv: int, classifier_hidden: int,
                  batch: int, image_size: int, num_classes: int,
                  seed: int) -> Graph:
    b = GraphBuilder(name, seed=seed)
    x = b.input("input", (batch, 3, image_size, image_size))
    x = b.conv_bn_act(x, 16, 3, stride=2, padding=1, act="hardswish",
                      name="stem")
    for i, (kernel, expand, out, use_se, act, stride) in enumerate(cfg):
        x = _inverted_residual(b, x, expand, out, kernel, stride, use_se, act,
                               name=f"ir{i}")
    x = b.conv_bn_act(x, last_conv, 1, act="hardswish", name="head_conv")
    x = b.global_avgpool2d(x, name="gap")
    x = b.flatten(x, name="flat")
    x = b.dense(x, classifier_hidden, name="head_fc1")
    x = b.activation(x, "hardswish", name="head_hs")
    x = b.dense(x, num_classes, name="head_fc2")
    x = b.softmax(x, name="probs")
    g = b.finish(x)
    g.metadata.update(model=name, task="classification",
                      image_size=image_size, num_classes=num_classes)
    return g


@register_model("mobilenet_v3_large")
def mobilenet_v3_large(batch: int = 1, image_size: int = 224,
                       num_classes: int = 1000, seed: int = 0) -> Graph:
    """MobileNetV3-Large — ~5.4 M parameters at 1000 classes."""
    return _mobilenet_v3("mobilenet_v3_large", _MOBILENETV3_LARGE, 960, 1280,
                         batch, image_size, num_classes, seed)


@register_model("mobilenet_v3_small")
def mobilenet_v3_small(batch: int = 1, image_size: int = 224,
                       num_classes: int = 1000, seed: int = 0) -> Graph:
    """MobileNetV3-Small — ~2.5 M parameters at 1000 classes."""
    return _mobilenet_v3("mobilenet_v3_small", _MOBILENETV3_SMALL, 576, 1024,
                         batch, image_size, num_classes, seed)


# ---------------------------------------------------------------------------
# YoloV4
# ---------------------------------------------------------------------------

def _csp_stage(b: GraphBuilder, x: str, out: int, blocks: int,
               first: bool, name: str) -> str:
    """CSPDarknet53 stage: downsample then cross-stage-partial residual blocks."""
    x = b.conv_bn_act(x, out, 3, stride=2, padding=1, act="mish",
                      name=f"{name}_down")
    split = out if first else out // 2
    route = b.conv_bn_act(x, split, 1, act="mish", name=f"{name}_route")
    y = b.conv_bn_act(x, split, 1, act="mish", name=f"{name}_main")
    hidden = out // 2 if first else split
    for i in range(blocks):
        identity = y
        z = b.conv_bn_act(y, hidden, 1, act="mish", name=f"{name}_r{i}_a")
        z = b.conv_bn_act(z, split, 3, padding=1, act="mish",
                          name=f"{name}_r{i}_b")
        y = b.add(z, identity, name=f"{name}_r{i}_add")
    y = b.conv_bn_act(y, split, 1, act="mish", name=f"{name}_post")
    merged = b.concat([y, route], axis=1, name=f"{name}_csp")
    return b.conv_bn_act(merged, out, 1, act="mish", name=f"{name}_out")


def _conv_set5(b: GraphBuilder, x: str, channels: int, name: str) -> str:
    """Five alternating 1x1/3x3 leaky convolutions (YOLO neck block)."""
    x = b.conv_bn_act(x, channels, 1, act="leaky_relu", name=f"{name}_c1")
    x = b.conv_bn_act(x, channels * 2, 3, padding=1, act="leaky_relu",
                      name=f"{name}_c2")
    x = b.conv_bn_act(x, channels, 1, act="leaky_relu", name=f"{name}_c3")
    x = b.conv_bn_act(x, channels * 2, 3, padding=1, act="leaky_relu",
                      name=f"{name}_c4")
    x = b.conv_bn_act(x, channels, 1, act="leaky_relu", name=f"{name}_c5")
    return x


@register_model("yolov4")
def yolov4(batch: int = 1, image_size: int = 416, num_classes: int = 80,
           seed: int = 0) -> Graph:
    """YoloV4 (Bochkovskiy et al.): CSPDarknet53 + SPP + PANet + 3 heads.

    ~64 M parameters at 80 classes; three detection outputs at strides
    8, 16 and 32, each with ``3 * (5 + num_classes)`` channels.
    """
    if image_size % 32:
        raise ValueError("yolov4 input size must be a multiple of 32")
    b = GraphBuilder("yolov4", seed=seed)
    x = b.input("input", (batch, 3, image_size, image_size))
    x = b.conv_bn_act(x, 32, 3, padding=1, act="mish", name="stem")
    x = _csp_stage(b, x, 64, 1, True, "csp1")
    x = _csp_stage(b, x, 128, 2, False, "csp2")
    c3 = _csp_stage(b, x, 256, 8, False, "csp3")    # stride 8
    c4 = _csp_stage(b, c3, 512, 8, False, "csp4")   # stride 16
    c5 = _csp_stage(b, c4, 1024, 4, False, "csp5")  # stride 32

    # SPP on the deepest feature map.
    y = b.conv_bn_act(c5, 512, 1, act="leaky_relu", name="spp_pre1")
    y = b.conv_bn_act(y, 1024, 3, padding=1, act="leaky_relu", name="spp_pre2")
    y = b.conv_bn_act(y, 512, 1, act="leaky_relu", name="spp_pre3")
    p5 = b.maxpool2d(y, 5, stride=1, padding=2, name="spp_p5")
    p9 = b.maxpool2d(y, 9, stride=1, padding=4, name="spp_p9")
    p13 = b.maxpool2d(y, 13, stride=1, padding=6, name="spp_p13")
    y = b.concat([p13, p9, p5, y], axis=1, name="spp_cat")
    y = b.conv_bn_act(y, 512, 1, act="leaky_relu", name="spp_post1")
    y = b.conv_bn_act(y, 1024, 3, padding=1, act="leaky_relu", name="spp_post2")
    n5 = b.conv_bn_act(y, 512, 1, act="leaky_relu", name="spp_post3")

    # PANet top-down path.
    up4 = b.conv_bn_act(n5, 256, 1, act="leaky_relu", name="td4_reduce")
    up4 = b.upsample2d(up4, 2, name="td4_up")
    lat4 = b.conv_bn_act(c4, 256, 1, act="leaky_relu", name="td4_lateral")
    n4 = b.concat([lat4, up4], axis=1, name="td4_cat")
    n4 = _conv_set5(b, n4, 256, "td4_set")

    up3 = b.conv_bn_act(n4, 128, 1, act="leaky_relu", name="td3_reduce")
    up3 = b.upsample2d(up3, 2, name="td3_up")
    lat3 = b.conv_bn_act(c3, 128, 1, act="leaky_relu", name="td3_lateral")
    n3 = b.concat([lat3, up3], axis=1, name="td3_cat")
    n3 = _conv_set5(b, n3, 128, "td3_set")

    # Heads + bottom-up path.
    anchors_per_cell = 3
    head_channels = anchors_per_cell * (5 + num_classes)

    h3 = b.conv_bn_act(n3, 256, 3, padding=1, act="leaky_relu", name="head3_conv")
    out3 = b.conv2d(h3, head_channels, 1, name="head3_out")

    d4 = b.conv_bn_act(n3, 256, 3, stride=2, padding=1, act="leaky_relu",
                       name="bu4_down")
    n4 = b.concat([d4, n4], axis=1, name="bu4_cat")
    n4 = _conv_set5(b, n4, 256, "bu4_set")
    h4 = b.conv_bn_act(n4, 512, 3, padding=1, act="leaky_relu", name="head4_conv")
    out4 = b.conv2d(h4, head_channels, 1, name="head4_out")

    d5 = b.conv_bn_act(n4, 512, 3, stride=2, padding=1, act="leaky_relu",
                       name="bu5_down")
    n5 = b.concat([d5, n5], axis=1, name="bu5_cat")
    n5 = _conv_set5(b, n5, 512, "bu5_set")
    h5 = b.conv_bn_act(n5, 1024, 3, padding=1, act="leaky_relu", name="head5_conv")
    out5 = b.conv2d(h5, head_channels, 1, name="head5_out")

    g = b.finish([out3, out4, out5])
    g.metadata.update(model="yolov4", task="detection",
                      image_size=image_size, num_classes=num_classes,
                      strides=[8, 16, 32])
    return g


# ---------------------------------------------------------------------------
# Small executable networks for tests and use cases
# ---------------------------------------------------------------------------

@register_model("tiny_convnet")
def tiny_convnet(batch: int = 1, image_size: int = 32, channels: int = 3,
                 num_classes: int = 10, seed: int = 0) -> Graph:
    """Small conv classifier runnable on the reference executor in ~ms."""
    b = GraphBuilder("tiny_convnet", seed=seed)
    x = b.input("input", (batch, channels, image_size, image_size))
    x = b.conv_bn_act(x, 16, 3, padding=1, name="c1")
    x = b.maxpool2d(x, 2, name="p1")
    x = b.conv_bn_act(x, 32, 3, padding=1, name="c2")
    x = b.maxpool2d(x, 2, name="p2")
    x = b.conv_bn_act(x, 64, 3, padding=1, name="c3")
    x = b.avgpool2d(x, 2, name="p3")
    x = b.flatten(x, name="flat")
    x = b.dense(x, num_classes, name="fc")
    x = b.softmax(x, name="probs")
    g = b.finish(x)
    g.metadata.update(model="tiny_convnet", task="classification",
                      image_size=image_size, num_classes=num_classes)
    return g


@register_model("wide_branch_net")
def wide_branch_net(batch: int = 1, image_size: int = 32, channels: int = 3,
                    branches: int = 4, branch_channels: int = 16,
                    num_classes: int = 10, seed: int = 0) -> Graph:
    """Inception-style classifier with ``branches`` independent conv
    branches off a shared stem, merged by concat.

    The branches have no data dependencies on each other, so the graph
    is wide (``branches`` independent steps per level).
    """
    b = GraphBuilder("wide_branch_net", seed=seed)
    x = b.input("input", (batch, channels, image_size, image_size))
    stem = b.conv_bn_act(x, branch_channels, 3, padding=1, name="stem")
    arms = []
    for i in range(branches):
        y = b.conv_bn_act(stem, branch_channels, 3, padding=1,
                          name=f"br{i}_a")
        y = b.conv_bn_act(y, branch_channels, 3, padding=1,
                          name=f"br{i}_b")
        arms.append(y)
    x = b.concat(arms, axis=1, name="merge")
    x = b.conv_bn_act(x, branch_channels * 2, 1, name="fuse")
    x = b.global_avgpool2d(x, name="gap")
    x = b.flatten(x, name="flat")
    x = b.dense(x, num_classes, name="fc")
    x = b.softmax(x, name="probs")
    g = b.finish(x)
    g.metadata.update(model="wide_branch_net", task="classification",
                      image_size=image_size, num_classes=num_classes,
                      branches=branches)
    return g


@register_model("tiny_yolo")
def tiny_yolo(batch: int = 1, image_size: int = 96, num_classes: int = 4,
              seed: int = 0) -> Graph:
    """Miniature single-head detector used by the executable detection tests."""
    if image_size % 32:
        raise ValueError("tiny_yolo input size must be a multiple of 32")
    b = GraphBuilder("tiny_yolo", seed=seed)
    x = b.input("input", (batch, 3, image_size, image_size))
    channels = 16
    for i in range(5):
        x = b.conv_bn_act(x, channels, 3, padding=1, act="leaky_relu",
                          name=f"c{i}")
        x = b.maxpool2d(x, 2, name=f"p{i}")
        channels = min(channels * 2, 256)
    x = b.conv_bn_act(x, 256, 3, padding=1, act="leaky_relu", name="neck")
    out = b.conv2d(x, 3 * (5 + num_classes), 1, name="head")
    g = b.finish(out)
    g.metadata.update(model="tiny_yolo", task="detection",
                      image_size=image_size, num_classes=num_classes,
                      strides=[32])
    return g


@register_model("mlp")
def mlp(batch: int = 1, in_features: int = 64,
        hidden: Sequence[int] = (128, 64), num_classes: int = 8,
        seed: int = 0) -> Graph:
    """Plain multilayer perceptron for 1-D signals and quick tests."""
    b = GraphBuilder("mlp", seed=seed)
    x = b.input("input", (batch, in_features))
    for i, width in enumerate(hidden):
        x = b.dense(x, width, name=f"fc{i}")
        x = b.relu(x, name=f"relu{i}")
    x = b.dense(x, num_classes, name="fc_out")
    x = b.softmax(x, name="probs")
    g = b.finish(x)
    g.metadata.update(model="mlp", task="classification",
                      in_features=in_features, num_classes=num_classes)
    return g


@register_model("motor_net")
def motor_net(batch: int = 1, window: int = 256, num_classes: int = 4,
              seed: int = 0) -> Graph:
    """Small CNN over folded vibration spectra (motor use case).

    Input is a (batch, 1, 8, window/16) folded magnitude spectrum — the
    layout :func:`repro.datasets.timeseries.vibration_features` produces
    for a raw window of ``window`` samples.  Four condition classes:
    healthy, bearing fault, imbalance, overheat.
    """
    if window % 16:
        raise ValueError("window must be divisible by 16")
    b = GraphBuilder("motor_net", seed=seed)
    x = b.input("input", (batch, 1, 8, window // 16))
    x = b.conv_bn_act(x, 8, 3, padding=1, name="c1")
    x = b.maxpool2d(x, 2, name="p1")
    x = b.conv_bn_act(x, 16, 3, padding=1, name="c2")
    x = b.flatten(x, name="flat")
    x = b.dense(x, num_classes, name="fc")
    x = b.softmax(x, name="probs")
    g = b.finish(x)
    g.metadata.update(model="motor_net", task="classification",
                      window=window, num_classes=num_classes)
    return g


@register_model("arc_net")
def arc_net(batch: int = 1, window: int = 128, seed: int = 0) -> Graph:
    """Binary arc/no-arc classifier over spectral features of current windows.

    Input is the length ``window//2`` feature vector produced by
    :func:`repro.datasets.timeseries.arc_features` from a raw window of
    ``window`` samples.  Sized for very low latency (the use case requires
    first-spark-to-inference latency far below the protection deadline,
    Sec. V-B).
    """
    if window % 2:
        raise ValueError("window must be even")
    b = GraphBuilder("arc_net", seed=seed)
    x = b.input("input", (batch, window // 2))
    x = b.dense(x, 128, name="fc1")
    x = b.relu(x, name="relu1")
    x = b.dense(x, 2, name="fc_out")
    x = b.softmax(x, name="probs")
    g = b.finish(x)
    g.metadata.update(model="arc_net", task="classification",
                      window=window, num_classes=2)
    return g
