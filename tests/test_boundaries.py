"""Every public function of the library refuses a bad argument at its boundary
(needs hypothesis).

Each name in the ``__all__`` of ``linalg``, ``channels``, ``choi`` and
``analysis`` is either called here or listed in ``SKIPPED`` with the reason.
A call takes valid arguments but one, which is drawn bad: non-finite, out of
range, wrongly shaped or of a wrong type.  It must raise ValueError whose
message names that argument, before any numpy warning.  No drawn value is a
genuine non-convergence, so a JacobiConvergenceError fails the property too.
"""

import math
import re
import warnings

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from sumdiff import analysis, channels, choi, linalg
from sumdiff.channels import Ad2Params, SignedKrausSet, ad2_coefficients, gad_choi, gad_kraus

MODULES = (linalg, channels, choi, analysis)

# ---------------------------------------------------------------------------
# bad values, by kind

NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
# what stands where a number is expected: a string, None, a bool, a complex, a list
WRONG_TYPES = st.sampled_from(["1", None, True, 1j, [1.0]])


def reals(low=-math.inf, high=math.inf, closed=True):
    """Bad values for a real number in [low, high], or (low, high) unless
    ``closed``; an infinite end is always open."""
    out = NON_FINITE | WRONG_TYPES
    if low > -math.inf:
        out |= st.floats(max_value=low, exclude_max=closed, allow_nan=False)
    if high < math.inf:
        out |= st.floats(min_value=high, exclude_min=closed, allow_nan=False)
    return out


def integers(low, high=None):
    """Bad values for an integer in [low, high]: any float is a wrong type."""
    out = st.floats() | WRONG_TYPES | st.integers(max_value=low - 1)
    return out if high is None else out | st.integers(min_value=high + 1)


def choices(*extra):
    """Bad values for a name among fixed choices."""
    return st.sampled_from(["nope", 3, *extra])


def arrays(valid, finite=True, shapes=None, none=True):
    """Bad values for an array argument of which ``valid`` is a good value: a
    wrong shape (``shapes``, by default ``valid`` flattened and ``valid``
    less its last column), a string, None unless it stands for a default
    (``none`` False), and, unless ``finite`` is False, ``valid`` with one
    entry non-finite."""
    valid = np.asarray(valid, dtype=complex)
    bad = [valid.ravel(), valid[..., :-1]] if shapes is None else shapes
    out = st.sampled_from(bad + ["x"] + [None] * none)
    if finite:
        @st.composite
        def broken(draw):
            a = valid.copy()
            a.flat[draw(st.integers(0, a.size - 1))] = draw(NON_FINITE | st.just(complex(0.0, math.nan)))
            return a
        out |= broken()
    return out


def sequences(valid):
    """Bad values for a sequence of matrices of which ``valid`` is a good
    value: one matrix with a non-finite entry, matrices of two shapes, a
    vector, and a string.  A non-iterable raises Python's TypeError when the
    sequence is walked, which is not drawn."""
    broken = np.array(valid[0], dtype=complex)
    broken[0, 0] = math.nan
    return st.sampled_from([(broken, *valid[1:]), (*valid, np.eye(len(valid[0]) + 1)), (np.ones(3),), "x"])


# ---------------------------------------------------------------------------
# the calls

PARAMS = Ad2Params(1.0, 0.3, 2.0, 10.0, 0.7)
CO = ad2_coefficients(PARAMS)
B16 = choi.choi_2ad(CO)
B4 = gad_choi(0.5, 0.3)
KS = gad_kraus(0.5, 0.3)
HERM = np.array([[1.0, 0.5j], [-0.5j, 2.0]])
STATE2 = np.diag([0.6, 0.4]).astype(complex)
STATE4 = np.eye(4, dtype=complex) / 4
POINT = analysis.holevo_point_form()
OPERATOR = r"\boperators?\b"  # SignedKrausSet's constructors share one check, which names the operators

# name -> (the function, valid keyword arguments, {parameter: bad values}); a
# parameter is named in the message by the pattern given with its values, by
# default its own name
CALLS = {
    "eig_hermitian": (linalg.eig_hermitian, dict(h=HERM),
                      dict(h=arrays(HERM), tol=reals(0.0, closed=False), max_sweeps=integers(0))),
    "eigvals_hermitian": (linalg.eigvals_hermitian, dict(h=HERM),
                          dict(h=arrays(HERM), tol=reals(0.0, closed=False), max_sweeps=integers(0))),
    "eig_rank2_pair": (linalg.eig_rank2_pair, dict(z=1 + 1j, r=0, c=1, dim=2),
                       dict(z=NON_FINITE | st.sampled_from([0, complex(math.nan, 1.0), "1", None, [1.0]]),
                            r=integers(0, 1) | st.just(1), c=integers(0, 1) | st.just(0), dim=integers(2))),
    # fold and unfold move entries and compute nothing from them: a
    # non-finite entry is moved as any other
    "fold": (linalg.fold, dict(v=np.arange(4.0)),
             dict(v=st.sampled_from([np.arange(3.0), np.eye(2), None, "x"]))),
    "unfold": (linalg.unfold, dict(a=HERM), dict(a=arrays(HERM, finite=False))),
    "is_hermitian": (linalg.is_hermitian, dict(a=HERM), dict(tol=reals(0.0))),
    "is_psd": (linalg.is_psd, dict(h=HERM, tol=1e-10), dict(h=arrays(HERM), tol=reals(0.0))),
    "partial_transpose": (linalg.partial_transpose, dict(m=B4, dim_a=2, dim_b=2),
                          dict(m=arrays(B4, finite=False), dim_a=integers(1), dim_b=integers(1))),
    "partial_trace": (linalg.partial_trace, dict(m=B4, dim_a=2, dim_b=2),
                      dict(m=arrays(B4, finite=False), dim_a=integers(1), dim_b=integers(1),
                           keep=choices(None))),
    "Ad2Params": (Ad2Params, dict(gamma=1.0, gamma12=0.3, omega12=2.0, omega0=10.0, t=0.7),
                  dict(gamma=reals(0.0, closed=False), gamma12=reals(-1.0, 1.0, closed=False),
                       omega12=reals(), omega0=reals(), t=reals(0.0))),
    "SignedKrausSet": (SignedKrausSet, dict(positive=KS.positive),
                       dict(positive=(sequences(KS.positive) | st.just(()), OPERATOR),
                            negative=(sequences(KS.positive), OPERATOR),
                            positive_labels=st.sampled_from([("a",), ("a",) * 5]))),
    "SignedKrausSet.of_stack": (SignedKrausSet.of_stack, dict(ops=np.array(KS.positive), positive_count=4),
                                dict(ops=(arrays(np.array(KS.positive)), OPERATOR),
                                     positive_count=integers(1, 4))),
    "ad2_apply": (channels.ad2_apply, dict(rho=STATE4, co=CO), dict(rho=arrays(STATE4, finite=False))),
    "ad2_coefficients": (ad2_coefficients, dict(params=PARAMS),
                         dict(t=st.sampled_from([np.array([0.5, math.nan]), np.array([math.inf]),
                                                 np.array([-1.0, 1.0]), np.array([[1.0]]), "x"]))),
    "apply_signed_kraus": (channels.apply_signed_kraus, dict(rho=STATE2, ks=KS),
                           dict(rho=arrays(STATE2, finite=False))),
    "check_density_matrix": (channels.check_density_matrix, dict(rho=STATE2), dict(rho=arrays(STATE2))),
    **{name: (getattr(channels, name), dict(p=0.5, lam=0.3), dict(p=reals(0.0, 1.0), lam=reals(0.0, 1.0)))
       for name in ("gad_choi", "gad_kraus", "gad_split_choi", "gad_split_kraus", "gad_split_report")},
    "random_density_matrix": (channels.random_density_matrix, dict(dim=2, rng=np.random.default_rng(0)),
                              dict(dim=integers(1), count=integers(0).filter(lambda count: count is not None))),
    "HermitianPartition": (choi.HermitianPartition, dict(elements=(HERM,), labels=()),
                           dict(elements=sequences((HERM,)) | st.just(()),
                                labels=st.sampled_from([("a", "b"), ("a", "b", "c")]))),
    "ad2_diag_pairs_operators": (choi.ad2_diag_pairs_operators, dict(chois=B16[None]),
                                 dict(chois=arrays(B16[None], shapes=[B16, B16[None, :4, :4]]),
                                      cutoff=reals(0.0))),
    "ad2_partition": (choi.ad2_partition, dict(co=CO), dict(strategy=choices(None), b=arrays(B16, none=False))),
    "ad2_signed_kraus": (choi.ad2_signed_kraus, dict(co=CO),
                         dict(strategy=choices(None), cutoff=reals(0.0), b=arrays(B16, none=False))),
    "choi_from_channel": (choi.choi_from_channel, dict(action=lambda rho: rho, dim=2), dict(dim=integers(1))),
    "extract_signed_kraus": (choi.extract_signed_kraus, dict(partition=choi.partition_full(B4)),
                             dict(cutoff=reals(0.0))),
    "partition_diag_pairs": (choi.partition_diag_pairs, dict(b=B4), dict(b=arrays(B4))),
    "partition_from_elements": (choi.partition_from_elements, dict(elements=(HERM,)),
                                dict(elements=sequences((HERM,)),
                                     reference=arrays(HERM, shapes=[HERM.ravel(), np.eye(3)], none=False))),
    "partition_from_masks": (choi.partition_from_masks, dict(b=B4, masks=(B4 != 0,)),
                             dict(b=arrays(B4), masks=st.sampled_from([(np.ones((3, 3), bool),), "x"]))),
    # b is the partition's one element, and a non-finite entry is refused as such
    "partition_full": (choi.partition_full, dict(b=B4), dict(b=(arrays(B4), r"\bb\b|^elements must be finite$"))),
    "standard_kraus_from_choi": (choi.standard_kraus_from_choi, dict(b=B4),
                                 dict(b=(arrays(B4), r"\bb\b|^elements must be finite$"))),
    "trace_preservation_residual": (choi.trace_preservation_residual, dict(b=B4),
                                    dict(b=arrays(B4, finite=False, shapes=[B4.ravel(), B4[:3, :3]]))),
    "HolevoForm": (analysis.HolevoForm, dict(outputs=(STATE2,), effects=(np.eye(2),)),
                   dict(outputs=sequences((STATE2,)) | st.just(None),
                        effects=sequences((np.eye(2),)) | st.just(None))),
    "concurrence": (analysis.concurrence, dict(rho=STATE4), dict(rho=arrays(STATE4))),
    "eb_report": (analysis.eb_report, dict(b=B4),
                  dict(b=arrays(B4, finite=False, shapes=[B4.ravel(), B4[:3, :3]]), tol=reals(0.0))),
    "holevo_apply": (analysis.holevo_apply, dict(form=POINT, rho=STATE4), dict(rho=arrays(STATE4))),
    "is_ppt": (analysis.is_ppt, dict(m=B4, dim_a=2, dim_b=2),
               # m's entries are read through is_psd, which names them h
               dict(m=(arrays(B4), r"\bm\b|^h has non-finite entries$"), dim_a=integers(1),
                    dim_b=integers(1), tol=reals(0.0), part=choices())),
    # the sub-channels keep some entries and replace the others: a non-finite
    # entry is kept or dropped as any other (is_ppt's ``part`` relies on it)
    "mdc_choi": (analysis.mdc_choi, dict(b=B16), dict(b=arrays(B16, finite=False))),
    "pdc_choi": (analysis.pdc_choi, dict(b=B16), dict(b=arrays(B16, finite=False))),
    "pdc_apply": (analysis.pdc_apply, dict(rho=STATE4, co=CO), dict(rho=arrays(STATE4))),
    "pdc_effective_state": (analysis.pdc_effective_state, dict(b=B16), dict(b=arrays(B16, finite=False))),
    "pdc_entanglement_trace": (analysis.pdc_entanglement_trace, dict(params=PARAMS, t_max=1.0, steps=3),
                               dict(t_max=reals(0.0), steps=integers(2))),
    "qc_form_test": (analysis.qc_form_test, dict(b=B16, d=4), dict(b=arrays(B16), d=integers(1), tol=reals(0.0))),
}

_CO_ONLY = "takes only an Ad2Coefficients record, which ad2_coefficients made and checked"
# __all__ names not called, with the reason
SKIPPED = {
    "EigenSystem": "a record of what a solve returns; it checks nothing",
    "JacobiConvergenceError": "an exception class",
    "ChannelReport": "a record of what eb_report returns; it checks nothing",
    "Ad2Coefficients": "a record of what ad2_coefficients computes and checks",
    "dagger": "a numpy passthrough: defined on any array numpy takes, non-finite entries included",
    "kron": "a numpy passthrough: defined on any arrays numpy takes, non-finite entries included",
    "max_abs": "a numpy passthrough: defined on any array numpy takes, non-finite entries included",
    "check_completeness": "takes only a SignedKrausSet, which its constructor checked",
    "reconstruct_choi": "takes only a SignedKrausSet, which its constructor checked",
    "holevo_kraus": "takes only a HolevoForm, which its constructor checked",
    "holevo_point_form": "takes no argument",
    "charpoly_checks": _CO_ONLY,
    "choi_2ad": _CO_ONLY,
    "mdc_kraus": _CO_ONLY,
    "pdc_kraus": _CO_ONLY,
    "completeness_residuals": "a stack kernel of sweep and SignedKrausSet, unchecked: a check would repeat, "
                              "on every export and sweep chunk, those of the functions that made its operands",
    "reconstruct_choi_stack": "a stack kernel of sweep and SignedKrausSet, unchecked: a check would repeat, "
                              "on every export and sweep chunk, those of the functions that made its operands",
}
# parameters of called names that take no drawn value, with the reason
UNDRAWN = {
    "is_hermitian": {"a": "a predicate: anything but a finite square Hermitian matrix gives False"},
    "is_psd": {"at": "a position map that is_ppt derives and caches; taken as given"},
    "ad2_coefficients": {"params": "an Ad2Params, which its constructor checked"},
    "ad2_apply": {"co": _CO_ONLY},
    "apply_signed_kraus": {"ks": "a SignedKrausSet, which its constructor checked"},
    "random_density_matrix": {"rng": "a numpy Generator"},
    "choi_from_channel": {"action": "a callable; its outputs are checked on the first evaluation"},
    "extract_signed_kraus": {"partition": "a HermitianPartition, which its constructor checked",
                             "relabel": "any mapping of labels"},
    "ad2_partition": {"co": _CO_ONLY},
    "ad2_signed_kraus": {"co": _CO_ONLY},
    "partition_diag_pairs": {"labels": "any mapping of labels, or None"},
    "partition_full": {"label": "any label"},
    "partition_from_elements": {"labels": "checked by HermitianPartition, drawn there"},
    "partition_from_masks": {"labels": "checked by HermitianPartition, drawn there"},
    "SignedKrausSet": {"negative_labels": "checked with positive_labels, drawn there"},
    "SignedKrausSet.of_stack": {"positive_labels": "checked by SignedKrausSet, drawn there",
                                "negative_labels": "checked by SignedKrausSet, drawn there"},
    "holevo_apply": {"form": "a HolevoForm, which its constructor checked"},
    "pdc_apply": {"co": _CO_ONLY},
    "pdc_entanglement_trace": {"params": "an Ad2Params, which its constructor checked"},
}
# drawn parameters that take a kind of bad value without a ValueError, which
# is therefore not drawn, with the reason
ACCEPTED = {
    ("ad2_apply", "rho"): "a non-finite entry: a check would cost every verify call a pass over the "
                          "states random_density_matrix made",
    ("apply_signed_kraus", "rho"): "a non-finite entry: a check would cost every verify call a pass over the "
                                   "states random_density_matrix made",
    ("trace_preservation_residual", "b"): "a non-finite entry, which gives a non-finite residual: a check "
                                          "would cost every export a pass over a Choi matrix the solve checks",
    ("eb_report", "b"): "a non-finite entry, which the solve refuses naming it h",
    ("partial_trace", "m"): "a non-finite entry, which gives a non-finite trace, as numpy's sums do",
    ("pdc_effective_state", "b"): "a non-finite entry, which it moves into the state as any other: a check "
                                  "would cost every sweep call a pass over Choi matrices that choi_2ad made; "
                                  "concurrence refuses the state",
}

CASES = [(name, param) for name, (_, _, drawn) in CALLS.items() for param in drawn]


def test_every_public_name_is_called_or_skipped_with_a_reason():
    public = {name for module in MODULES for name in module.__all__}
    constants = {name for name in public
                 if not callable(getattr(next(m for m in MODULES if name in m.__all__), name))}
    called = {name for name in CALLS if "." not in name}
    assert called | set(SKIPPED) | constants == public
    assert not called & set(SKIPPED)
    assert all(reason for reason in SKIPPED.values())


@pytest.mark.parametrize("name", list(CALLS))
def test_every_parameter_is_drawn_or_left_with_a_reason(name):
    import inspect
    fn, valid, drawn = CALLS[name]
    params = set(inspect.signature(fn).parameters) - {"self", "cls"}
    left = UNDRAWN.get(name, {})
    assert set(drawn) | set(left) == params
    assert set(valid) <= params and not set(drawn) & set(left)
    assert all(reason for reason in left.values())


def test_accepted_values_are_of_drawn_parameters():
    assert set(ACCEPTED) <= set(CASES)


@pytest.mark.parametrize("name, param", CASES, ids=[f"{n}-{p}" for n, p in CASES])
@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_a_bad_argument_raises_a_value_error_naming_it(name, param, data):
    fn, valid, drawn = CALLS[name]
    values, pattern = drawn[param] if isinstance(drawn[param], tuple) else (drawn[param], rf"\b{param}\b")
    value = data.draw(values, label=param)
    kwargs = {**valid, param: value}
    if "rng" in kwargs:
        kwargs["rng"] = np.random.default_rng(0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as err:
            fn(**kwargs)
    assert re.search(pattern, str(err.value)), f"{name}({param}={value!r}): {err.value}"
