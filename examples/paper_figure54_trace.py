#!/usr/bin/env python3
"""Replay of the paper's worked execution example (Fig. 54, experiment E4).

The example shows how robots pick base nodes, yield to each other using the
ordinal-number / x-element tie-breaks and finally gather.  For every round we
print which rule of Algorithm 1 fired for every robot, followed by the ASCII
frame, so the execution can be compared side by side with the figure.

Run with:  python examples/paper_figure54_trace.py
"""
from repro import Configuration, ShibataGatheringAlgorithm
from repro.algorithms.base_node import determine_base_label
from repro.core.engine import step_nodes
from repro.core.view import view_of
from repro.viz import render_configuration

#: A compact initial configuration in the spirit of Fig. 54(a): the rightmost
#: column already contains the future base node.
INITIAL = Configuration([(0, 0), (0, 1), (1, 1), (1, -1), (2, -1), (2, 0), (-1, 1)])


def main() -> None:
    algorithm = ShibataGatheringAlgorithm()
    configuration = INITIAL

    for round_index in range(20):
        print(f"===== round {round_index} (diameter {configuration.diameter()}) =====")
        print(render_configuration(configuration))
        for position in configuration.sorted_nodes():
            view = view_of(configuration, position, 2)
            rule, move = algorithm.explain(view)
            base = determine_base_label(view)
            move_name = move.name if move is not None else "stay"
            print(f"  robot at {tuple(position)}: base={base} rule={rule:<10} -> {move_name}")
        next_nodes, moves, collision = step_nodes(configuration.nodes, algorithm)
        if collision is not None:
            print(f"collision: {collision[0]} at {collision[1]}")
            break
        if not moves:
            break
        configuration = Configuration(next_nodes)
        print()

    print()
    print("final configuration:")
    print(render_configuration(configuration, highlight=[configuration.gathering_center()]
                               if configuration.gathering_center() else None))
    print(f"gathered: {configuration.is_gathered()}")


if __name__ == "__main__":
    main()
