import math

import numpy as np
import pytest

from cylproc import model
from cylproc.euclid import ConvexPolygon, Direction, Disc, Segment, canonical_directions
from cylproc.model import (
    DeterministicBase,
    DiscRadiusLaw,
    FixedAxes,
    GirdleBand,
    Isotropic,
    MixtureBase,
    ProcessSpec,
    RadiusLaw,
    spec_from_dict,
    spec_to_dict,
)
from cylproc.rng import philox_stream


def iso_disc_spec(lam=0.1, a=1.0):
    return ProcessSpec(d=3, k=1, intensity=lam, alpha=Isotropic(), base=DeterministicBase(Disc(a)))


def test_radius_law_validation():
    with pytest.raises(ValueError):
        RadiusLaw(())
    with pytest.raises(ValueError):
        RadiusLaw(((1.0, 0.5), (1.0, 0.5)))  # duplicate radii
    with pytest.raises(ValueError):
        RadiusLaw(((-1.0, 1.0),))
    with pytest.raises(ValueError):
        RadiusLaw(((0.0, 0.4), (2.0, 0.4)))  # weights do not sum to 1
    for atoms in (((math.nan, 1.0),), ((math.inf, 1.0),), ((1.0, math.nan),), ((1.0, 0.5), (2.0, math.nan)),
                  ((True, 1.0),), ((1.0, True),)):
        with pytest.raises(ValueError, match="finite"):
            RadiusLaw(atoms)
    law = RadiusLaw(((0.0, 0.5), (2.0, 0.5)))
    assert law.mean == 1.0
    assert law.second_moment == 2.0


@pytest.mark.parametrize("make", [
    lambda: DiscRadiusLaw(RadiusLaw(((0.0, 0.5), (2.0, 0.5)))),
    lambda: MixtureBase([(Disc(0.7), 0.5), (ConvexPolygon([[0, 0], [1, 0], [1, 1], [0, 1]]), 0.5)]),
    lambda: DeterministicBase(Disc(1.0)),
], ids=["disc_radius_law", "mixture", "deterministic"])
def test_a_base_law_checks_its_weights_once(monkeypatch, make):
    calls = []
    check = model._check_weights
    monkeypatch.setattr(model, "_check_weights", lambda weights: calls.append(weights) or check(weights))
    make()
    assert len(calls) == 1


def test_isotropic_2d_angle_uniformity_ks():
    n = 1_000_000
    rng = philox_stream(11, 0)
    u = Isotropic().sample_vectors(2, rng, n)
    angles = np.mod(np.arctan2(u[:, 1], u[:, 0]), math.pi)
    sorted_a = np.sort(angles) / math.pi
    grid = np.arange(1, n + 1) / n
    ks = float(np.max(np.maximum(np.abs(grid - sorted_a), np.abs(sorted_a - (grid - 1 / n)))))
    assert ks < 1.63 / math.sqrt(n)  # 1% level


def test_fixed_axes_and_deterministic_base_are_constant():
    spec = ProcessSpec(d=3, k=1, intensity=0.1,
                       alpha=FixedAxes([(Direction([0, 0, 1.0]), 1.0)]),
                       base=DeterministicBase(Disc(1.0)))
    rng = philox_stream(12, 0)
    for _ in range(50):
        vec = spec.alpha.sample_vectors(spec.d, rng, 1)[0]
        (j,) = spec.base.sample_index(rng, 1)
        K = spec.base.atoms()[j][0]
        frame = spec.subspace_frames(vec[None])[0]
        assert np.allclose(vec, [0, 0, 1]) and np.allclose(vec @ frame, 0)
        assert K == Disc(1.0)


# the fixed axes hold leading coordinates in (1e-12, 1e-7] ahead of a negative one, which a
# sign test at another tolerance than canonical_directions' would flip
SAMPLED_LAWS = {
    "isotropic": lambda d: Isotropic(),
    "girdle": lambda d: GirdleBand([0.6, 0.8] if d == 2 else [0.6, 0.0, 0.8], 0.4),
    "fixed": lambda d: FixedAxes([([1e-9, -1.0], 0.5), ([0.6, 0.8], 0.3), ([1.0, 0.0], 0.2)] if d == 2 else
                                 [([1e-9, -0.6, 0.8], 0.4), ([0.0, 1e-10, -1.0], 0.3), ([0.6, 0.0, 0.8], 0.3)]),
    "fixed_one": lambda d: FixedAxes([([1e-8, -1.0] if d == 2 else [1e-8, -0.6, 0.8], 1.0)]),
}


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("law", sorted(SAMPLED_LAWS))
def test_sampled_vectors_are_canonical_rows_bit_for_bit(law, d):
    # the sampler stores the draws as axes and builds the frames from them as they are
    u = SAMPLED_LAWS[law](d).sample_vectors(d, philox_stream(21, 0), 5000)
    assert u.shape == (5000, d)
    assert u.tobytes() == canonical_directions(u).tobytes()


def test_girdle_band_constraint():
    delta = 0.3
    g = GirdleBand(Direction([0, 0, 1.0]), delta)
    rng = philox_stream(13, 0)
    u = g.sample_vectors(3, rng, 200_000)
    assert np.all(np.abs(u[:, 2]) <= math.sin(delta) + 1e-12)
    g2 = GirdleBand(Direction([1.0, 0.0]), delta)
    u2 = g2.sample_vectors(2, rng, 100_000)
    assert np.all(np.abs(u2 @ np.array([1.0, 0.0])) <= math.sin(delta) + 1e-12)


def test_mean_base_moments():
    assert iso_disc_spec().base.mean_area == pytest.approx(math.pi)
    assert iso_disc_spec().base.mean_boundary == pytest.approx(2 * math.pi)

    law_spec = ProcessSpec(d=3, k=1, intensity=0.1, alpha=Isotropic(),
                           base=DiscRadiusLaw(RadiusLaw(((0.0, 0.5), (2.0, 0.5)))))
    assert law_spec.base.mean_area == pytest.approx(2 * math.pi)      # 0.5 * pi * 4
    assert law_spec.base.mean_boundary == pytest.approx(2 * math.pi)  # 0.5 * 2 pi * 2

    square = ConvexPolygon([[0, 0], [1, 0], [1, 1], [0, 1]])
    mix = ProcessSpec(d=3, k=1, intensity=0.1, alpha=Isotropic(),
                      base=MixtureBase(((square, 0.5), (Disc(1.0), 0.5))))
    assert mix.base.mean_area == pytest.approx((1 + math.pi) / 2)

    seg_spec = ProcessSpec(d=2, k=1, intensity=0.5, alpha=Isotropic(),
                           base=DeterministicBase(Segment(1.0)))
    assert seg_spec.base.mean_boundary == 2.0  # endpoint counting measure


def test_empirical_mean_area_matches():
    law = RadiusLaw(((0.5, 0.25), (1.0, 0.5), (1.5, 0.25)))
    base = DiscRadiusLaw(law)
    rng = philox_stream(14, 0)
    table = np.array([0.0 if s is None else s.area for s, _ in base.atoms()])
    areas = table[base.sample_index(rng, 1_000_000)]
    se = areas.std(ddof=1) / math.sqrt(len(areas))
    assert abs(areas.mean() - base.mean_area) < 3 * se


def test_mixture_rejects_what_is_not_a_cross_section():
    for component in (None, 1.0, "disc"):
        with pytest.raises(ValueError, match="must be a cross section"):
            MixtureBase([(component, 1.0)])
        with pytest.raises(ValueError, match="must be a cross section"):
            DeterministicBase(component)
    with pytest.raises(ValueError, match="share one dimension"):
        MixtureBase([(Disc(1.0), 0.5), (Segment(1.0), 0.5)])


def test_base_pairing_rejected():
    with pytest.raises(ValueError):
        ProcessSpec(d=3, k=1, intensity=0.1, alpha=Isotropic(), base=DeterministicBase(Segment(1.0)))
    with pytest.raises(ValueError):
        ProcessSpec(d=2, k=1, intensity=0.1, alpha=Isotropic(), base=DeterministicBase(Disc(1.0)))
    with pytest.raises(ValueError):
        ProcessSpec(d=3, k=2, intensity=0.1, alpha=Isotropic(), base=DeterministicBase(Disc(1.0)))
    # valid pairings construct fine
    ProcessSpec(d=3, k=2, intensity=0.1, alpha=Isotropic(), base=DeterministicBase(Segment(1.0)))
    ProcessSpec(d=2, k=1, intensity=0.1, alpha=Isotropic(), base=DeterministicBase(Segment(1.0)))


@pytest.mark.parametrize("axes, match", [
    pytest.param([], "at least one axis", id="no_axis"),
    pytest.param([([1.0, 0.0], 0.5), ([0.0, 0.0, 1.0], 0.5)], "one ambient dimension", id="two_dimensions"),
])
def test_fixed_axes_reject_no_axis_and_mixed_dimensions(axes, match):
    with pytest.raises(ValueError, match=match):
        FixedAxes(axes)


def test_spec_validation():
    with pytest.raises(ValueError):
        ProcessSpec(d=4, k=1, intensity=0.1, alpha=Isotropic(), base=DeterministicBase(Disc(1.0)))
    with pytest.raises(ValueError):
        ProcessSpec(d=3, k=3, intensity=0.1, alpha=Isotropic(), base=DeterministicBase(Disc(1.0)))
    with pytest.raises(ValueError):
        ProcessSpec(d=3, k=1, intensity=-0.1, alpha=Isotropic(), base=DeterministicBase(Disc(1.0)))
    with pytest.raises(ValueError):
        iso_disc_spec(lam=0.0).require_positive_volume()
    iso_disc_spec().require_positive_volume()


def test_sampling_reproducibility():
    spec = iso_disc_spec()
    a, b = philox_stream(99, 0), philox_stream(99, 0)
    assert np.array_equal(spec.alpha.sample_vectors(3, a, 5), spec.alpha.sample_vectors(3, b, 5))
    assert np.array_equal(spec.base.sample_index(a, 5), spec.base.sample_index(b, 5))


def test_one_axis_law_draws_nothing():
    law = FixedAxes([(Direction([0.0, 0.0, 1.0]), 1.0)])
    rng, untouched = philox_stream(7, 0), philox_stream(7, 0)
    assert np.array_equal(law.sample_vectors(3, rng, 10), np.tile([0.0, 0.0, 1.0], (10, 1)))
    assert rng.random() == untouched.random()


def test_spec_json_round_trip():
    specs = [
        iso_disc_spec(),
        ProcessSpec(d=2, k=1, intensity=0.5,
                    alpha=GirdleBand(Direction([1.0, 0.0]), 0.4),
                    base=DeterministicBase(Segment(1.0))),
        ProcessSpec(d=3, k=2, intensity=0.2,
                    alpha=FixedAxes([(Direction([0, 0, 1.0]), 0.25), (Direction([1.0, 0, 0]), 0.75)]),
                    base=DeterministicBase(Segment(0.5))),
        ProcessSpec(d=3, k=1, intensity=0.1, alpha=Isotropic(),
                    base=DiscRadiusLaw(RadiusLaw(((0.0, 0.5), (2.0, 0.5))))),
        ProcessSpec(d=3, k=1, intensity=0.1, alpha=Isotropic(),
                    base=MixtureBase(((ConvexPolygon([[0, 0], [1, 0], [1, 1], [0, 1]]), 0.5),
                                      (Disc(1.0), 0.5)))),
        # one-atom forms of the radius law and the mixture keep their own JSON form
        ProcessSpec(d=3, k=1, intensity=0.1, alpha=Isotropic(), base=DiscRadiusLaw(RadiusLaw(((1.0, 1.0),)))),
        ProcessSpec(d=3, k=1, intensity=0.1, alpha=Isotropic(), base=MixtureBase([(Disc(1.0), 1.0)])),
    ]
    for spec in specs:
        doc = spec_to_dict(spec)
        back = spec_from_dict(doc)
        assert spec_to_dict(back) == doc


def test_spec_from_dict_rejects_unknown_fields():
    doc = spec_to_dict(iso_disc_spec())
    doc["surprise"] = 1
    with pytest.raises(ValueError, match="spec: unknown field 'surprise'"):
        spec_from_dict(doc)
    doc = spec_to_dict(iso_disc_spec())
    doc["alpha"]["spin"] = 2
    with pytest.raises(ValueError, match="spec.alpha: unknown field 'spin'"):
        spec_from_dict(doc)
