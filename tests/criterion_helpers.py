"""Code behind acceptance criteria: the image benchmark in MNIST geometry and
its IDX writer (criterion 04 and the ``mnist`` tests), which no CLI command
makes, the noise-free precision table (criteria 04 and 05), which is the
sweep ``hdtcam sweep --technologies none`` runs, the RRAM +1 shift
(criterion 09) and the energy savings of voltage overscaling (criterion 11),
which no CLI command computes."""

import struct

import numpy as np

from hdtcam.encoders import IDX_IMAGE_MAGIC, IDX_LABEL_MAGIC
from hdtcam.explorer import NO_TABLE, SweepSpace, plan_sweep, sweep

NO_LOSS_EPSILON = 5e-4  # noise floor of HDC accuracy fluctuations


def make_image_benchmark(num_classes=10, train_per_class=500, test_per_class=100, side=28,
                         seed=0):
    """(train images, train labels, test images, test labels), uint8, in
    MNIST geometry: copies of random class prototypes (a quarter of the
    pixels white) with 6 % of their pixels flipped, classes in order."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x1d]))
    protos = rng.random((num_classes, side, side)) < 0.25

    def draw(per_class):
        flips = rng.random((num_classes, per_class, side, side)) < 0.06
        images = np.where(protos[:, None] ^ flips, 255, 0).astype(np.uint8)
        return (images.reshape(-1, side, side),
                np.repeat(np.arange(num_classes, dtype=np.uint8), per_class))

    return (*draw(train_per_class), *draw(test_per_class))


def save_mnist(images_path, labels_path, images, labels):
    """Write (count, rows, cols) uint8 images and their labels as an IDX pair."""
    with open(images_path, "wb") as f:
        f.write(struct.pack(">IIII", IDX_IMAGE_MAGIC, *images.shape) + images.tobytes())
    with open(labels_path, "wb") as f:
        f.write(struct.pack(">II", IDX_LABEL_MAGIC, len(labels)) + labels.tobytes())


def precision_rows(am, queries, labels, block_sizes, precisions):
    """Noise-free (N, P, accuracy, loss) rows, loss against the full-Hamming
    accuracy: the points of ``hdtcam sweep --technologies none`` over these
    block sizes and precisions, which build one distance histogram per N,
    clamped at its largest P and folded for each P."""
    d = am.dimension
    space = SweepSpace((NO_TABLE,), block_sizes=block_sizes, precisions=precisions,
                       dimensions=(d,))
    return [(p.block_size, p.precision, p.accuracy_mean, p.accuracy_loss)
            for p in sweep(plan_sweep(space, None), {d: (am, queries, labels)})]


def rram_shift(precision):
    """The distance each true distance 0..P reads as when every read is one too high."""
    return np.minimum(np.arange(precision + 1) + 1, precision)


def energy_savings(points, acceptable_loss, eps=NO_LOSS_EPSILON):
    """Energy ratio of voltage overscaling: the cheapest ~lossless point at the
    nominal (highest) voltage over the cheapest point inside the loss budget.

    Anchoring at the nominal voltage keeps the reference stable: reduced
    voltage points whose measured loss fluctuates around zero never count as
    the lossless baseline they are compared against. LookupError when either
    point is missing.
    """
    within_budget = [p.energy_pj for p in points if p.accuracy_loss <= acceptable_loss]
    if not within_budget:
        raise LookupError(f"no design point has accuracy loss <= {acceptable_loss}")
    nominal = max(p.voltage for p in points)
    lossless = [p.energy_pj for p in points if p.voltage == nominal and p.accuracy_loss <= eps]
    if not lossless:
        raise LookupError(f"no design point at the nominal voltage {nominal} V has accuracy "
                          f"loss <= the {eps} no-loss threshold")
    return min(lossless) / min(within_budget)
