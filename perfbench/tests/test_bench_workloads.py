import json

import pytest

import workloads


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_equal_seeds_give_identical_files(workload, tmp_path):
    workloads.write_inputs(workload, 11, tmp_path / "one")
    workloads.write_inputs(workload, 11, tmp_path / "two")
    workloads.write_inputs(workload, 12, tmp_path / "other")
    names = sorted(p.name for p in (tmp_path / "one").iterdir())
    assert names == sorted(workloads.input_files(workload, 11))
    same = [(tmp_path / "one" / n).read_bytes() == (tmp_path / "two" / n).read_bytes() for n in names]
    other = [(tmp_path / "one" / n).read_bytes() == (tmp_path / "other" / n).read_bytes() for n in names]
    assert all(same)
    assert not all(other)


def test_exact_free_differs_from_exact_coupled_only_in_the_coupling():
    coupled = workloads.input_files("exact-coupled", 3)
    free = workloads.input_files("exact-free", 3)
    assert coupled["model.json"]["history_coupling"] is not None
    assert free["model.json"]["history_coupling"] is None
    assert dict(coupled["model.json"], history_coupling=None) == free["model.json"]
    assert coupled["data.json"] == free["data.json"]


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_inputs_load_and_the_neighbour_differs(workload, seed, tmp_path):
    from dpgenlab.modelfiles import load_dataset, load_model_spec

    workloads.write_inputs(workload, seed, tmp_path)
    model = load_model_spec(tmp_path / "model.json")
    data = load_dataset(tmp_path / "data.json")
    index, record = (tmp_path / "neighbor.txt").read_text().strip().split(":")
    label, _, tag = record.split(",")
    old = data.records[int(index)]
    assert (label, tag) != (old.label, old.tag)
    assert label in model.vocabulary
    ops = workloads.cycle(workload, tmp_path, tmp_path / "out")
    assert all(str(tmp_path) in " ".join(op.argv) for op in ops)
    assert json.loads((tmp_path / "data.json").read_text())["records"]
