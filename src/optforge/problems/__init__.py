"""Problem instances: functions, transforms, constraints, synthesis."""
