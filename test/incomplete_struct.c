struct S;
int main(void) {
  struct S *s = 0;
  return sizeof(*s);
}
