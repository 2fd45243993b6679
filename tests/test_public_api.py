import secrecy_outage
from secrecy_outage import analytic, montecarlo, quadrature, sweep

# The per-case closed-form wrappers folded into analytic_sop / asymptotic_sop.
REMOVED = ("sop_ss_ku", "sop_ss_ka", "sop_os_ku", "sop_os_ka", "sop_single", "asymptotic_single")


def test_every_exported_name_resolves():
    for name in secrecy_outage.__all__:
        assert getattr(secrecy_outage, name) is not None, name


def test_one_closed_form_entry_per_route():
    for module in (secrecy_outage, analytic):
        for name in REMOVED:
            assert not hasattr(module, name), f"{module.__name__}.{name}"
            assert name not in module.__all__


def test_traced_benchmark_seams_exist():
    # the traced benchmark (perfbench/child.py) rebinds these module names;
    # a refactor that drops one must fail here, not silently in --trace 1
    seams = {
        quadrature: ("build_integrand",),
        sweep: ("evaluate_cell", "analytic_sop", "asymptotic_sop", "quadrature_sop"),
        montecarlo: ("make_rng", "sample_channel_block", "secrecy_outage_indicator"),
    }
    for module, names in seams.items():
        for name in names:
            assert callable(getattr(module, name, None)), f"{module.__name__}.{name}"
