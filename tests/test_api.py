import inspect

import pytest

from foamtor import connection, foam, torsion, twisted

SAMPLE_PARAMS = {"conn", "sample", "samples"}


@pytest.mark.parametrize("module", [connection, twisted, torsion, foam],
                         ids=lambda m: m.__name__)
def test_no_function_takes_a_foam_beside_its_connection(module):
    # a connection carries its foam: a second foam argument could only disagree
    takes_sample, doubled = [], []
    for name, fn in inspect.getmembers(module, inspect.isfunction):
        if name.startswith("_") or fn.__module__ != module.__name__:
            continue
        params = set(inspect.signature(fn).parameters)
        if params & SAMPLE_PARAMS:
            takes_sample.append(name)
            if "foam" in params:
                doubled.append(name)
    assert takes_sample, "no public function of %s takes a sample" % module.__name__
    assert doubled == []
