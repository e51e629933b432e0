double g = -0.0;
int main(void) {
  double z = 0.0;
  printf("%f %f\n", 1.0 / -z, 1.0 / g);
  return 0;
}
