import warnings

from hypothesis import HealthCheck, settings

# A failing Hypothesis test imports hypothesis.extra._patching, which pulls in
# libcst where it is installed. libcst warns DeprecationWarning at import, and
# under `-W error` that warning, raised inside a pytest hook, aborts the whole
# session. Importing it once here, with only that warning ignored for only this
# import, lets a failing test be reported like any other.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass

settings.register_profile(
    "det",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("det")
