from .basic import BASIC_FUNCTIONS, BASIC_NAMES
from .transforms import TransformSpec, make_rotation
from .constraints import (
    CONSTRAINT_TEMPLATES,
    ConstraintSpec,
    EPS_EQ,
    constraint_values,
)
from .instance import (
    ComponentSpec,
    ProblemInstance,
    evaluate_batch,
    instance_from_dict,
    instance_to_dict,
    load_instances,
    save_instances,
)
from .synthesis import synthesize_instance, synthesize_set

__all__ = [
    "BASIC_FUNCTIONS",
    "BASIC_NAMES",
    "TransformSpec",
    "make_rotation",
    "CONSTRAINT_TEMPLATES",
    "ConstraintSpec",
    "EPS_EQ",
    "constraint_values",
    "ComponentSpec",
    "ProblemInstance",
    "evaluate_batch",
    "instance_from_dict",
    "instance_to_dict",
    "load_instances",
    "save_instances",
    "synthesize_instance",
    "synthesize_set",
]
