import json

import inputs
from repro.api import TaskKind


def _describe(config):
    return [
        (task.name, task.period, task.wcet, task.vm_id, task.kind.value, task.device)
        for task in config.tasks
    ]


def test_design_configs_repeat_per_seed_and_differ_across_seeds():
    for index in (0, 7, 59):
        h1, first = inputs.design_config(11, index)
        h2, again = inputs.design_config(11, index)
        assert h1 == h2
        assert _describe(first) == _describe(again)
    assert [_describe(inputs.design_config(11, i)[1]) for i in range(5)] != [
        _describe(inputs.design_config(12, i)[1]) for i in range(5)
    ]


def test_design_shapes_cycle_independently_of_the_seed():
    for index in range(len(inputs.DESIGN_SHAPES)):
        hyperperiod, predefined, vms = inputs.DESIGN_SHAPES[index]
        for seed in (1, 2):
            h, config = inputs.design_config(seed, index)
            assert h == hyperperiod
            assert sum(t.kind is TaskKind.PREDEFINED for t in config.tasks) == predefined
            runtime_vms = {t.vm_id for t in config.tasks if t.kind is TaskKind.RUNTIME}
            assert runtime_vms == set(range(vms))
            for task in config.tasks:
                if task.kind is TaskKind.RUNTIME:
                    assert hyperperiod % task.period == 0
    assert config.servers is None


def _schedule(seed, mixed=False):
    churn = inputs.Churn(mixed=mixed)
    return inputs.poisson_schedule(seed, "nominal", 500.0, 2.0, churn, 2)


def _lines(requests):
    return [json.dumps([item.offset, item.conn, item.message], sort_keys=True) for item in requests]


def test_request_schedules_repeat_per_seed_and_differ_across_seeds():
    first = _lines(_schedule(5))
    assert first == _lines(_schedule(5))
    assert first != _lines(_schedule(6))
    assert 800 < len(first) < 1200


def test_churn_keeps_the_population_and_pins_vms_to_connections():
    schedule = _schedule(5, mixed=True)
    outstanding = {}
    for position, request in enumerate(schedule, start=1):
        assert request.conn == request.vm % 2
        message = request.message
        assert message["seq"] == position
        if position % inputs.ANALYZE_EVERY == 0:
            assert message["op"] == "analyze"
            continue
        names = outstanding.setdefault(request.vm, [])
        if message["op"] == "admit":
            assert len(names) < inputs.SERVE_POPULATION
            names.append(message["task"]["name"])
        else:
            assert len(names) == inputs.SERVE_POPULATION
            assert message["task_name"] == names.pop(0)
