"""Serverless substrate: Lambda functions and EC2 cost comparison."""

from .. import _lazy

_EXPORTS = {
    "Ec2CostModel": ".ec2_model",
    "LambdaConfig": ".lambda_model",
    "LambdaDeployment": ".lambda_model",
    "LambdaUsage": ".lambda_model",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = _lazy(__name__, _EXPORTS)
